"""Unit tests for HTTP message types and form encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http import (
    Headers,
    HttpError,
    HttpRequest,
    HttpResponse,
    encode_form,
    html_response,
    quote,
    xml_response,
)
from tests.http_oracle import ReferenceHeaders


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers([("Content-Type", "text/html")])
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_get_default(self):
        assert Headers().get("X-Missing", "fallback") == "fallback"

    def test_set_replaces_all(self):
        headers = Headers([("X-A", "1"), ("x-a", "2")])
        headers.set("X-A", "3")
        assert headers.get_all("X-A") == ["3"]

    def test_add_keeps_duplicates(self):
        headers = Headers()
        headers.add("Set-Cookie", "a=1")
        headers.add("Set-Cookie", "b=2")
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]

    def test_remove(self):
        headers = Headers([("A", "1"), ("B", "2")])
        headers.remove("a")
        assert "A" not in headers
        assert "B" in headers

    def test_copy_is_independent(self):
        original = Headers([("A", "1")])
        copy = original.copy()
        copy.set("A", "2")
        assert original.get("A") == "1"

    def test_wire_lines(self):
        headers = Headers([("Host", "a.com"), ("X-N", "v")])
        assert headers.wire_lines() == b"Host: a.com\r\nX-N: v\r\n"

    def test_iteration_preserves_order(self):
        pairs = [("B", "2"), ("A", "1"), ("C", "3")]
        assert list(Headers(pairs)) == pairs


#: Header names in mixed case, including characters whose lowercase
#: form differs in length (``İ``) or is not the ASCII letter (``ſ``).
HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "CONTENT-LENGTH", "X-A", "x-a",
     "Set-Cookie", "X-İd", "x-i̇d", "X-ſ", "X-s", "X-S", "Host"]
)
HEADER_VALUES = st.one_of(st.text(max_size=8), st.integers(-5, 5))
HEADER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), HEADER_NAMES, HEADER_VALUES),
        st.tuples(st.just("set"), HEADER_NAMES, HEADER_VALUES),
        st.tuples(st.just("remove"), HEADER_NAMES),
        st.tuples(st.just("copy")),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    initial=st.lists(st.tuples(HEADER_NAMES, st.text(max_size=8)), max_size=6),
    preset=st.booleans(),
    ops=HEADER_OPS,
)
def test_indexed_headers_answer_as_the_frozen_scan(initial, preset, ops):
    """After any add/set/remove/copy sequence, the indexed ``Headers``
    answers every lookup, and serializes, exactly as the frozen
    list-scanning class (``tests/http_oracle.py``)."""
    make = Headers.preset if preset else Headers
    make_reference = ReferenceHeaders.preset if preset else ReferenceHeaders
    headers, reference = make(initial), make_reference(initial)
    for op in ops:
        if op[0] == "copy":
            headers, reference = headers.copy(), reference.copy()
        else:
            getattr(headers, op[0])(*op[1:])
            getattr(reference, op[0])(*op[1:])
        assert list(headers) == list(reference)
        assert len(headers) == len(reference)
        for probe in ("X-A", "x-a", "Content-Length", "X-İd", "X-ſ", "x-s", "Absent"):
            assert headers.get(probe) == reference.get(probe)
            assert headers.get(probe, "dflt") == reference.get(probe, "dflt")
            assert headers.get_all(probe) == reference.get_all(probe)
            assert (probe in headers) == (probe in reference)
    lines = [("%s: %s" % pair) for pair in reference]
    if all(line.isascii() for line in lines):
        assert headers.wire_lines() == "".join(line + "\r\n" for line in lines).encode()


class TestHttpRequest:
    def test_to_bytes_round_shape(self):
        request = HttpRequest("GET", "/index.html", Headers([("Host", "a.com")]))
        wire = request.to_bytes()
        assert wire.startswith(b"GET /index.html HTTP/1.1\r\n")
        assert b"Host: a.com\r\n" in wire
        assert wire.endswith(b"\r\n\r\n")

    def test_body_sets_content_length(self):
        request = HttpRequest("POST", "/", body=b"hello")
        assert request.headers.get("Content-Length") == "5"

    def test_path_and_query_split(self):
        request = HttpRequest("GET", "/search?q=mac+book&page=2")
        assert request.path == "/search"
        assert request.query == "q=mac+book&page=2"
        assert request.query_params() == {"q": "mac book", "page": "2"}

    def test_query_params_empty(self):
        assert HttpRequest("GET", "/plain").query_params() == {}

    def test_form_params_decoding(self):
        request = HttpRequest("POST", "/", body=b"name=Alice+B&city=New%20York")
        assert request.form_params() == {"name": "Alice B", "city": "New York"}

    def test_bad_method_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest("get", "/")
        with pytest.raises(HttpError):
            HttpRequest("", "/")

    def test_empty_target_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest("GET", "")

    def test_keep_alive_default_http11(self):
        assert HttpRequest("GET", "/").keep_alive

    def test_connection_close(self):
        request = HttpRequest("GET", "/", Headers([("Connection", "close")]))
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        request = HttpRequest("GET", "/", version="HTTP/1.0")
        assert not request.keep_alive


class TestHttpResponse:
    def test_reason_defaults_from_status(self):
        assert HttpResponse(404).reason == "Not Found"

    def test_ok_range(self):
        assert HttpResponse(200).ok
        assert HttpResponse(204).ok
        assert not HttpResponse(404).ok
        assert not HttpResponse(302).ok

    def test_content_type_strips_parameters(self):
        response = HttpResponse(
            200, Headers([("Content-Type", "text/html; charset=utf-8")])
        )
        assert response.content_type == "text/html"

    def test_content_length_always_present(self):
        response = HttpResponse(200, body=b"abc")
        assert response.headers.get("Content-Length") == "3"

    def test_to_bytes(self):
        response = HttpResponse(200, body=b"hi")
        wire = response.to_bytes()
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert wire.endswith(b"\r\n\r\nhi")

    def test_text_decoding(self):
        assert HttpResponse(200, body="héllo".encode("utf-8")).text() == "héllo"

    def test_helpers(self):
        assert html_response("<p>x</p>").content_type == "text/html"
        assert xml_response("<a/>").content_type == "application/xml"


class TestFormEncoding:
    def test_quote_safe_chars_untouched(self):
        assert quote("abc-._~XYZ123") == "abc-._~XYZ123"

    def test_quote_space_and_unicode(self):
        assert quote("a b") == "a%20b"
        assert quote("é") == "%C3%A9"

    def test_encode_form_round_trip(self):
        params = {"name": "Alice B", "addr": "5th Ave & 52nd"}
        body = encode_form(params)
        request = HttpRequest("POST", "/", body=body)
        assert request.form_params() == params
