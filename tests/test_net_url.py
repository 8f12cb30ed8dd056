"""Unit tests for URL parsing and relative resolution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Url, UrlError, parse_url, resolve_url


class TestParsing:
    def test_absolute_http(self):
        url = parse_url("http://example.com/index.html")
        assert url.scheme == "http"
        assert url.host == "example.com"
        assert url.port is None
        assert url.effective_port == 80
        assert url.path == "/index.html"
        assert url.is_absolute

    def test_https_default_port(self):
        url = parse_url("https://secure.example.com/")
        assert url.scheme == "https"
        assert url.effective_port == 443

    def test_explicit_port(self):
        url = parse_url("http://host-pc:3000/")
        assert url.host == "host-pc"
        assert url.port == 3000
        assert url.effective_port == 3000

    def test_query_and_fragment(self):
        url = parse_url("http://a.com/search?q=laptop&page=2#results")
        assert url.path == "/search"
        assert url.query == "q=laptop&page=2"
        assert url.fragment == "results"

    def test_request_target_includes_query(self):
        url = parse_url("http://a.com/search?q=x")
        assert url.request_target() == "/search?q=x"

    def test_request_target_defaults_to_root(self):
        assert parse_url("http://a.com").request_target() == "/"

    def test_relative_path(self):
        url = parse_url("images/logo.png")
        assert not url.is_absolute
        assert url.scheme is None
        assert url.host is None
        assert url.path == "images/logo.png"

    def test_root_relative_path(self):
        url = parse_url("/css/site.css")
        assert not url.is_absolute
        assert url.path == "/css/site.css"

    def test_network_path_reference(self):
        url = parse_url("//cdn.example.com/lib.js")
        assert url.scheme is None
        assert url.host == "cdn.example.com"
        assert url.path == "/lib.js"

    def test_host_is_lowercased(self):
        assert parse_url("http://EXAMPLE.com/A").host == "example.com"

    def test_case_preserved_in_path(self):
        assert parse_url("http://example.com/A/B").path == "/A/B"

    def test_bad_port_rejected(self):
        with pytest.raises(UrlError):
            parse_url("http://a.com:notaport/")
        with pytest.raises(UrlError):
            parse_url("http://a.com:99999/")

    def test_non_ascii_digit_port_is_a_url_error(self):
        for port in ("\u00b2", "\u0661", "8\u00b9"):
            with pytest.raises(UrlError):
                parse_url("http://a.com:%s/" % port)

    def test_port_past_int_digits_is_a_url_error(self):
        # int() raises ValueError on more than 4300 digits; the fuzzer
        # below draws such ports too.
        with pytest.raises(UrlError, match="out of range"):
            parse_url("http://a.com:%s/" % ("9" * 4301))

    def test_zero_padded_port_is_read(self):
        assert parse_url("http://a.com:%s80/" % ("0" * 4301)).port == 80

    def test_empty_host_rejected(self):
        with pytest.raises(UrlError):
            parse_url("http:///path")

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(UrlError):
            parse_url("ftp:stuff")

    def test_non_string_rejected(self):
        with pytest.raises(UrlError):
            parse_url(None)

    def test_str_round_trip(self):
        for text in [
            "http://example.com/",
            "http://example.com/a/b?x=1#frag",
            "https://h:8443/p",
            "/relative/path?q=2",
            "images/x.png",
        ]:
            assert str(parse_url(text)) == text

    def test_default_port_elided_in_str(self):
        assert str(parse_url("http://a.com:80/x")) == "http://a.com/x"

    def test_origin(self):
        assert parse_url("http://a.com/x").origin == "http://a.com"
        assert parse_url("http://a.com:3000/x").origin == "http://a.com:3000"
        with pytest.raises(UrlError):
            parse_url("/x").origin


class TestEquality:
    def test_equal_ignoring_default_port(self):
        assert parse_url("http://a.com/x") == parse_url("http://a.com:80/x")

    def test_unequal_paths(self):
        assert parse_url("http://a.com/x") != parse_url("http://a.com/y")

    def test_hashable(self):
        urls = {parse_url("http://a.com/x"), parse_url("http://a.com:80/x")}
        assert len(urls) == 1

    def test_replace(self):
        url = parse_url("http://a.com/x")
        replaced = url.replace(path="/y")
        assert replaced.path == "/y"
        assert replaced.host == "a.com"
        assert url.path == "/x"  # original untouched


class TestResolution:
    BASE = parse_url("http://a.com/b/c/d?q=1")

    def resolve(self, reference):
        return str(resolve_url(self.BASE, parse_url(reference)))

    def test_absolute_reference_wins(self):
        assert self.resolve("http://x.org/p") == "http://x.org/p"

    def test_simple_relative(self):
        assert self.resolve("g") == "http://a.com/b/c/g"

    def test_relative_with_subdir(self):
        assert self.resolve("g/h") == "http://a.com/b/c/g/h"

    def test_root_relative(self):
        assert self.resolve("/g") == "http://a.com/g"

    def test_network_path(self):
        assert self.resolve("//other.com/g") == "http://other.com/g"

    def test_query_only(self):
        assert self.resolve("?y=2") == "http://a.com/b/c/d?y=2"

    def test_fragment_only(self):
        assert self.resolve("#frag") == "http://a.com/b/c/d?q=1#frag"

    def test_dot_segment(self):
        assert self.resolve("./g") == "http://a.com/b/c/g"

    def test_dotdot_segment(self):
        assert self.resolve("../g") == "http://a.com/b/g"

    def test_double_dotdot(self):
        assert self.resolve("../../g") == "http://a.com/g"

    def test_dotdot_beyond_root_clamps(self):
        assert self.resolve("../../../../g") == "http://a.com/g"

    def test_trailing_slash_preserved(self):
        assert self.resolve("g/") == "http://a.com/b/c/g/"

    def test_empty_reference_keeps_base(self):
        assert self.resolve("") == "http://a.com/b/c/d?q=1"

    def test_base_must_be_absolute(self):
        with pytest.raises(UrlError):
            resolve_url(parse_url("/rel"), parse_url("x"))

    def test_resolution_result_is_absolute(self):
        resolved = resolve_url(self.BASE, parse_url("../img/logo.png"))
        assert resolved.is_absolute
        assert resolved.origin == "http://a.com"


# -- fuzzing ----------------------------------------------------------------------------

#: Characters whose digit, case or length behaviour differs from ASCII:
#: '²' passes str.isdigit(), '١' is a digit int() reads, 'İ' lowercases
#: to two characters and 'ſ' uppercases to 'S'.
UNUSUAL = "\u00b2\u0661\u0130\u017f"
URL_ALPHABET = "aAzZ09:/?#@.-+%_ \t\x00" + UNUSUAL
PORTS = ["80", "0", "0080", "65535", "65536", "-1", "+8", "8_0", "", "9" * 4301] + list(UNUSUAL)


def structured_urls():
    """scheme, separator, host, port and a tail, each drawn from tokens."""
    return st.tuples(
        st.sampled_from(["http", "HTTP", "https", "ftp", "x+y-z", "", "\u0130"]),
        st.sampled_from(["://", ":", "//", ""]),
        st.sampled_from(["a.com", "S.COM", "", "\u0130.com", "\u017f", "u@a.com"]),
        st.sampled_from([":", "::", ""]),
        st.sampled_from(PORTS),
        st.text(alphabet=URL_ALPHABET, max_size=12),
    ).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=URL_ALPHABET, max_size=40), structured_urls()))
def test_fuzzed_urls_parse_or_raise_url_error(text):
    """parse_url returns a Url or raises UrlError; a parsed reference
    also resolves against a page URL, and prints, without any other
    exception."""
    try:
        url = parse_url(text)
    except UrlError:
        return
    assert isinstance(url, Url)
    str(url)
    try:
        resolved = resolve_url(parse_url("http://s.com/dir/page.html"), url)
    except UrlError:
        return
    assert resolved.is_absolute
    str(resolved)
