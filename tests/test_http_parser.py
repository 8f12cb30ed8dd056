"""Unit tests for the incremental HTTP parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    RequestParser,
    ResponseParser,
    parse_request_bytes,
    parse_response_bytes,
)
from repro.http.parser import _MAX_BODY_BYTES, _MAX_HEADER_BYTES

#: A decimal string longer than int() converts (it raises ValueError
#: past 4300 digits).
PAST_INT_DIGITS = b"9" * 4301


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

    def test_oversized_headers_rejected_when_the_terminator_came_with_them(self):
        with pytest.raises(HttpError, match="header section"):
            RequestParser().feed(b"GET / HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n")

    def test_declared_body_over_the_cap_rejected_with_the_head(self):
        parser = RequestParser()
        with pytest.raises(HttpError, match="exceeds"):
            parser.feed(b"POST /poll HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n")
        head = b"POST /poll HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        with pytest.raises(HttpError, match="exceeds"):
            RequestParser().feed(head % (_MAX_BODY_BYTES + 1))
        assert RequestParser().feed(head % _MAX_BODY_BYTES) == []

    def test_content_length_past_int_digits_is_an_http_error(self):
        head = b"POST / HTTP/1.1\r\nContent-Length: " + PAST_INT_DIGITS + b"\r\n\r\n"
        with pytest.raises(HttpError, match="exceeds"):
            RequestParser().feed(head)

    @pytest.mark.parametrize(
        "length", [b"0003", b"0" * 4301 + b"3"], ids=["short", "past-int-digits"]
    )
    def test_zero_padded_content_length_still_frames_the_body(self, length):
        wire = b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\nabc"
        assert parse_request_bytes(wire).body == b"abc"


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

    @pytest.mark.parametrize("status", [b"20", b"2000", PAST_INT_DIGITS], ids=["2", "4", "4301"])
    def test_status_must_be_three_digits(self, status):
        with pytest.raises(HttpError, match="status code"):
            parse_response_bytes(b"HTTP/1.1 " + status + b" OK\r\n\r\n")

    def test_declared_body_over_the_cap_rejected_with_the_head(self):
        parser = ResponseParser()
        with pytest.raises(HttpError, match="exceeds"):
            parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (_MAX_BODY_BYTES + 1))

    def test_round_trip(self):
        from repro.http import Headers

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


# -- fuzzing: hostile heads fed in random chunks ----------------------------------------

#: Length values a broken or hostile peer sends: signs, underscores,
#: non-ASCII digits, NUL, values at and past the body cap and at the
#: usual integer-overflow edges, and more digits than int() converts.
LENGTHS = [
    b"0", b"7", b"0003", b" 12 ", b"+5", b"-1", b"1_0", b"\xb2", "\u0661".encode(), b"\x00",
    b"%d" % _MAX_BODY_BYTES, b"%d" % (_MAX_BODY_BYTES + 1), b"%d" % 2**31, b"%d" % 2**64,
    b"99999999999999999999", PAST_INT_DIGITS,
]
LENGTH_NAMES = [b"Content-Length", b"content-length", b"CONTENT-LENGTH"]
OTHER_NAMES = [b"Transfer-Encoding", b"transfer-encoding", b"Host", b"X-\xb2", b"", b"\x00"]
#: A header value that alone fills the header cap.
HUGE_VALUE = b"a" * _MAX_HEADER_BYTES
SEPARATORS = [b":", b": ", b":\t", b" :", b"", b"::"]
TOKENS = (
    [b"GET", b"POST", b"get", b"HTTP/1.1", b"HTTP/1.0", b"http/1.1", b"HTTP/", b"/", b"/poll"]
    + [b"200", b"404", b"OK", b" ", b"\r\n", b"\r\n\r\n", b":", b"\t"]
    + LENGTH_NAMES + OTHER_NAMES + LENGTHS
)
REQUEST_LINES = [b"GET / HTTP/1.1", b"POST /poll HTTP/1.1", b"post /p http/1.0", b"GET /"]
STATUS_LINES = [
    b"HTTP/1.1 200 OK", b"HTTP/1.0 204", b"HTTP/1.1 404 Not Found",
    b"HTTP/1.1 \xb2\xb2\xb2 OK", b"HTTP/1.1 " + "\u0661\u0662\u0663".encode() + b" OK",
]


def heads(start_lines):
    """One head: token soup, or a start line, a length header, a few
    more header lines built from the tokens, and a terminator that may
    be cut short."""
    soup = st.lists(st.sampled_from(TOKENS), max_size=12).map(b"".join)
    length = st.tuples(
        st.sampled_from(LENGTH_NAMES),
        st.sampled_from([b": ", b":"]),
        st.one_of(st.sampled_from(LENGTHS), st.integers(0, 2**70).map(b"%d".__mod__)),
    )
    other = st.tuples(
        st.sampled_from(LENGTH_NAMES + OTHER_NAMES),
        st.sampled_from(SEPARATORS),
        st.sampled_from(LENGTHS + [b"chunked", b"h-pc", b"", HUGE_VALUE]),
    )
    structured = st.tuples(
        st.sampled_from(start_lines),
        length.map(b"".join),
        st.lists(other.map(b"".join), max_size=2),
        st.sampled_from([b"\r\n\r\n", b"\r\n\r\n", b"\r\n", b""]),
    ).map(
        lambda parts: b"\r\n".join([parts[0], parts[1]] + parts[2]) + parts[3]
    )
    return st.one_of(structured, soup)


@pytest.mark.parametrize(
    "parser_class, message_class, start_lines",
    [(RequestParser, HttpRequest, REQUEST_LINES), (ResponseParser, HttpResponse, STATUS_LINES)],
    ids=["request", "response"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_heads_end_in_messages_or_an_http_error(
    data, parser_class, message_class, start_lines
):
    """Every feed returns messages or raises HttpError, and the buffer
    never holds more than a capped head, its terminator and a capped
    body, even when a body far past the cap follows."""
    wire = data.draw(st.lists(heads(start_lines), min_size=1, max_size=3).map(b"".join))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=6)))
    bounds = [0] + cuts + [len(wire)]
    chunks = [wire[start:end] for start, end in zip(bounds, bounds[1:])]
    chunks.append(bytes(_MAX_HEADER_BYTES + _MAX_BODY_BYTES + 1))
    parser = parser_class()
    for chunk in chunks:
        try:
            messages = parser.feed(chunk)
        except HttpError:
            return  # the connection is answered 400 and closed
        assert all(isinstance(message, message_class) for message in messages)
        assert parser.pending_bytes <= _MAX_HEADER_BYTES + 4 + _MAX_BODY_BYTES
