"""Unit tests for the incremental HTTP parser."""

import pytest

from repro.http import (
    HttpError,
    RequestParser,
    ResponseParser,
    parse_request_bytes,
    parse_response_bytes,
)


class TestRequestParser:
    def test_simple_get(self):
        request = parse_request_bytes(b"GET /x HTTP/1.1\r\nHost: a.com\r\n\r\n")
        assert request.method == "GET"
        assert request.target == "/x"
        assert request.headers.get("Host") == "a.com"
        assert request.body == b""

    def test_post_with_body(self):
        wire = b"POST /f HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        request = parse_request_bytes(wire)
        assert request.body == b"abcd"

    def test_byte_at_a_time_feeding(self):
        wire = b"POST /f HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
        parser = RequestParser()
        messages = []
        for index in range(len(wire)):
            messages.extend(parser.feed(wire[index : index + 1]))
        assert len(messages) == 1
        assert messages[0].body == b"xyz"
        assert parser.pending_bytes == 0

    def test_two_pipelined_requests_in_one_chunk(self):
        wire = (
            b"GET /a HTTP/1.1\r\n\r\n"
            b"POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
        )
        messages = RequestParser().feed(wire)
        assert [m.target for m in messages] == ["/a", "/b"]
        assert messages[1].body == b"ok"

    def test_round_trip_through_to_bytes(self):
        original = parse_request_bytes(
            b"POST /p?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi"
        )
        again = parse_request_bytes(original.to_bytes())
        assert again.method == original.method
        assert again.target == original.target
        assert again.body == original.body

    def test_bad_request_line(self):
        with pytest.raises(HttpError):
            parse_request_bytes(b"GARBAGE\r\n\r\n")

    def test_bad_version(self):
        with pytest.raises(HttpError):
            parse_request_bytes(b"GET / SPDY/3\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(HttpError):
            parse_request_bytes(b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpError):
            parse_request_bytes(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_non_ascii_digit_content_length_is_an_http_error(self):
        # '\xb2' decodes to '²': str.isdigit() accepts it, int() does not.
        with pytest.raises(HttpError):
            parse_request_bytes(b"GET / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n")

    def test_chunked_rejected(self):
        with pytest.raises(HttpError, match="chunked"):
            parse_request_bytes(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )

    def test_incomplete_returns_nothing(self):
        parser = RequestParser()
        assert parser.feed(b"GET / HTTP/1.1\r\nHos") == []
        assert parser.pending_bytes > 0

    def test_body_split_across_chunks(self):
        parser = RequestParser()
        assert parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 6\r\n\r\nabc") == []
        messages = parser.feed(b"def")
        assert messages[0].body == b"abcdef"

    def test_oversized_headers_rejected(self):
        parser = RequestParser()
        with pytest.raises(HttpError, match="header section"):
            parser.feed(b"GET / HTTP/1.1\r\nX: " + b"a" * 70000)


class TestResponseParser:
    def test_simple_response(self):
        response = parse_response_bytes(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert response.status == 200
        assert response.reason == "OK"
        assert response.body == b"hello"
        assert response.content_type == "text/html"

    def test_reason_with_spaces(self):
        response = parse_response_bytes(b"HTTP/1.1 404 Not Found\r\n\r\n")
        assert response.reason == "Not Found"

    def test_missing_reason_tolerated(self):
        response = parse_response_bytes(b"HTTP/1.1 204\r\n\r\n")
        assert response.status == 204

    def test_bad_status_line(self):
        with pytest.raises(HttpError):
            parse_response_bytes(b"NOTHTTP 200 OK\r\n\r\n")
        with pytest.raises(HttpError):
            parse_response_bytes(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_non_ascii_digit_status_is_an_http_error(self):
        with pytest.raises(HttpError):
            parse_response_bytes(b"HTTP/1.1 \xb2\xb2\xb2 OK\r\n\r\n")

    def test_round_trip(self):
        from repro.http import Headers, HttpResponse

        original = HttpResponse(302, Headers([("Location", "/next")]), b"")
        again = parse_response_bytes(original.to_bytes())
        assert again.status == 302
        assert again.headers.get("Location") == "/next"

    def test_streamed_responses(self):
        parser = ResponseParser()
        first = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"
        second = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"
        messages = []
        for chunk in (first[:10], first[10:] + second[:5], second[5:]):
            messages.extend(parser.feed(chunk))
        assert [m.body for m in messages] == [b"a", b"b"]

    def test_exactly_one_required(self):
        with pytest.raises(HttpError):
            parse_response_bytes(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nab")
