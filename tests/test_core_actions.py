"""Tests for user-action records and stable element references."""

import gc

import pytest

from repro.core import (
    ActionError,
    ClickAction,
    FormFillAction,
    MouseMoveAction,
    ScrollAction,
    SubmitAction,
    UserAction,
    decode_actions,
    element_reference,
    encode_actions,
    resolve_reference,
)
from repro.html import parse_document


class TestActionSerialization:
    def test_round_trip_all_kinds(self):
        actions = [
            ClickAction("a:3"),
            FormFillAction("form:0", {"name": "Alice", "city": "NY"}),
            SubmitAction("form:1", {"q": "laptop"}),
            MouseMoveAction(120, 340),
            ScrollAction(512),
        ]
        decoded = decode_actions(encode_actions(actions))
        assert decoded == actions

    def test_decode_empty(self):
        assert decode_actions("") == []
        assert decode_actions("[]") == []

    def test_decode_bad_json(self):
        with pytest.raises(ActionError):
            decode_actions("{not json")

    def test_decode_non_list(self):
        with pytest.raises(ActionError):
            decode_actions('{"kind": "click"}')

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000 + "]" * 100000,  # nested past the recursion limit
            "[1]",
            '[["kind", "click"]]',
            '[{"kind": "mousemove", "x": "left", "y": 0}]',
            '[{"kind": "scroll", "offset": [1]}]',
            '[{"kind": "scroll", "offset": 1e400}]',
        ],
        ids=["nested", "number", "list", "bad-int", "list-int", "infinite"],
    )
    def test_decode_hostile_payload_is_action_error(self, text):
        # Collect earlier tests' garbage first: a generator finalized by
        # the collector in the middle of the nested decode hits the
        # recursion limit itself and surfaces here as an unraisable error.
        gc.collect()
        with pytest.raises(ActionError):
            decode_actions(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ActionError):
            UserAction.from_dict({"kind": "teleport"})

    def test_click_requires_ref(self):
        with pytest.raises(ActionError):
            ClickAction("")

    def test_formfill_requires_mapping(self):
        with pytest.raises(ActionError):
            UserAction.from_dict({"kind": "formfill", "form_ref": "form:0", "fields": "nope"})

    def test_mousemove_coerces_ints(self):
        action = MouseMoveAction("10", 20.0)
        assert action.x == 10 and action.y == 20

    def test_equality_and_hash(self):
        a = ClickAction("a:1")
        b = ClickAction("a:1")
        assert a == b
        assert len({a, b}) == 1
        assert a != ClickAction("a:2")


DOC = parse_document(
    "<html><head></head><body>"
    "<form id='f1'><input name='x'></form>"
    "<a href='/one'>one</a>"
    "<form id='f2'><input name='y'><input name='z'></form>"
    "<a href='/two'>two</a>"
    "</body></html>"
)


class TestElementReferences:
    def test_reference_by_document_order(self):
        forms = DOC.get_elements_by_tag_name("form")
        assert element_reference(DOC, forms[0]) == "form:0"
        assert element_reference(DOC, forms[1]) == "form:1"
        inputs = DOC.get_elements_by_tag_name("input")
        assert element_reference(DOC, inputs[2]) == "input:2"

    def test_resolve_round_trip(self):
        for element in DOC.descendant_elements():
            if element.tag in ("form", "a", "input"):
                ref = element_reference(DOC, element)
                assert resolve_reference(DOC, ref) is element

    def test_resolve_out_of_range(self):
        with pytest.raises(ActionError):
            resolve_reference(DOC, "form:9")

    def test_resolve_bad_format(self):
        for bad in ("form", "form:x", ":0"):
            with pytest.raises(ActionError):
                resolve_reference(DOC, bad)

    def test_reference_of_detached_element(self):
        from repro.html import Element

        with pytest.raises(ActionError):
            element_reference(DOC, Element("form"))

    def test_references_stable_across_copies(self):
        """The participant's copy resolves references to the 'same'
        elements as the host document — the invariant that makes
        tag:index references work at all."""
        copy = DOC.clone()
        for element in DOC.descendant_elements():
            if element.tag not in ("form", "a", "input"):
                continue
            ref = element_reference(DOC, element)
            mirrored = resolve_reference(copy, ref)
            assert mirrored.tag == element.tag
            assert mirrored.attributes == element.attributes
