"""User-action records exchanged between participants and RCB-Agent.

A participant's browsing actions (form filling, clicks, mouse-pointer
moves) are piggybacked onto Ajax polling requests (paper §4.1.1), and
the host's own actions can be mirrored out inside the ``userActions``
element of the XML envelope (Fig. 4).  Actions are small, structured,
and identified by *stable element references*: because the participant's
DOM is a faithful copy of the host's, an element can be named by its tag
category and document-order index on both sides.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

__all__ = [
    "UserAction",
    "ClickAction",
    "FormFillAction",
    "SubmitAction",
    "MouseMoveAction",
    "PresenceAction",
    "ScrollAction",
    "encode_actions",
    "decode_actions",
    "decode_action_list",
    "element_reference",
    "resolve_reference",
    "ActionError",
]


class ActionError(Exception):
    """Malformed action payload or unresolvable element reference."""


class UserAction:
    """Base class; concrete actions define ``kind`` and payload fields."""

    kind = "action"

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        raise NotImplementedError

    @staticmethod
    def from_dict(data: Dict) -> "UserAction":
        """Reconstruct a concrete action from its wire form."""
        kind = data.get("kind")
        cls = _ACTION_TYPES.get(kind)
        if cls is None:
            raise ActionError("unknown action kind %r" % (kind,))
        return cls._parse(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, UserAction) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.to_dict())


class ClickAction(UserAction):
    """A click on a link or button, named by element reference."""

    kind = "click"

    def __init__(self, ref: str):
        if not ref:
            raise ActionError("click requires an element reference")
        self.ref = ref

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "ref": self.ref}

    @classmethod
    def _parse(cls, data: Dict) -> "ClickAction":
        return cls(_reference(data, "ref"))


class FormFillAction(UserAction):
    """Field values typed into a form (the co-filling feature)."""

    kind = "formfill"

    def __init__(self, form_ref: str, fields: Dict[str, str]):
        if not form_ref:
            raise ActionError("formfill requires a form reference")
        self.form_ref = form_ref
        self.fields = dict(fields)

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "form_ref": self.form_ref, "fields": self.fields}

    @classmethod
    def _parse(cls, data: Dict) -> "FormFillAction":
        return cls(_reference(data, "form_ref"), _fields(data))


class SubmitAction(UserAction):
    """A form submission carrying the form's data back to the host."""

    kind = "submit"

    def __init__(self, form_ref: str, fields: Dict[str, str]):
        if not form_ref:
            raise ActionError("submit requires a form reference")
        self.form_ref = form_ref
        self.fields = dict(fields)

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "form_ref": self.form_ref, "fields": self.fields}

    @classmethod
    def _parse(cls, data: Dict) -> "SubmitAction":
        return cls(_reference(data, "form_ref"), _fields(data))


class MouseMoveAction(UserAction):
    """Mouse-pointer coordinates, for pointer mirroring."""

    kind = "mousemove"

    def __init__(self, x: int, y: int):
        self.x = int(x)
        self.y = int(y)

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "x": self.x, "y": self.y}

    @classmethod
    def _parse(cls, data: Dict) -> "MouseMoveAction":
        return cls(_integer(data, "x"), _integer(data, "y"))


class PresenceAction(UserAction):
    """Roster snapshot pushed to participants when membership changes.

    Implements the usability study's most-requested improvement
    (§5.2.3: "indicators of the other person's connection and status
    may be needed").
    """

    kind = "presence"

    def __init__(self, participants: List[str]):
        self.participants = sorted(participants)

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "participants": self.participants}

    @classmethod
    def _parse(cls, data: Dict) -> "PresenceAction":
        participants = data.get("participants")
        if type(participants) is not list or not all(type(p) is str for p in participants):
            raise ActionError("presence requires a list of participant ids")
        return cls(participants)


class ScrollAction(UserAction):
    """Viewport scroll offset, for scroll mirroring."""

    kind = "scroll"

    def __init__(self, offset: int):
        self.offset = int(offset)

    def to_dict(self) -> Dict:
        """Serializable representation (the wire format)."""
        return {"kind": self.kind, "offset": self.offset}

    @classmethod
    def _parse(cls, data: Dict) -> "ScrollAction":
        return cls(_integer(data, "offset"))


# Wire fields are checked by JSON type, as the agent checks a poll body:
# a reference is a non-empty string, form fields map text to text and a
# coordinate or offset is an integer (a bool is not).

#: A lone surrogate: a JSON string may escape one, but a form submission
#: cannot encode it as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _reference(data: Dict, key: str) -> str:
    ref = data.get(key)
    if type(ref) is not str or not ref:
        raise ActionError("%s must be a non-empty string" % key)
    return ref


def _fields(data: Dict) -> Dict[str, str]:
    fields = data.get("fields")
    if type(fields) is not dict or not all(
        _is_text(name) and _is_text(value) for name, value in fields.items()
    ):
        raise ActionError("fields must map text to text")
    return fields


def _is_text(value) -> bool:
    return type(value) is str and (value.isascii() or _SURROGATE.search(value) is None)


def _integer(data: Dict, key: str) -> int:
    value = data.get(key, 0)
    if type(value) is not int:
        raise ActionError("%s must be an integer" % key)
    return value


_ACTION_TYPES = {
    cls.kind: cls
    for cls in (
        ClickAction,
        FormFillAction,
        SubmitAction,
        MouseMoveAction,
        PresenceAction,
        ScrollAction,
    )
}


def encode_actions(actions: List[UserAction]) -> str:
    """Serialize actions for transport (poll bodies / XML envelope)."""
    return json.dumps([action.to_dict() for action in actions])


def decode_actions(text: str) -> List[UserAction]:
    """Parse a transport payload back into action objects."""
    if not text:
        return []
    try:
        items = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ActionError("bad action payload: %s" % (exc,))
    return decode_action_list(items)


def decode_action_list(items) -> List[UserAction]:
    """Validate an already-parsed payload (a list of action objects)
    into action objects."""
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ActionError("action payload must be a list of objects")
    try:
        return [UserAction.from_dict(item) for item in items]
    except TypeError as exc:  # an unhashable kind, such as a list
        raise ActionError("bad action field: %s" % (exc,))


# -- stable element references --------------------------------------------------

#: Tags addressable by reference, in the categories RCB rewrites.
_REFERENCE_TAGS = ("form", "a", "input", "select", "textarea", "button")


def element_reference(document, element) -> str:
    """Stable reference ``tag:index`` for an element of ``document``.

    The index is the element's position among same-tag elements in
    document order — identical on host and participant because the
    participant DOM mirrors the host DOM.
    """
    tag = element.tag
    index = 0
    for candidate in document.descendant_elements():
        if candidate.tag != tag:
            continue
        if candidate is element:
            return "%s:%d" % (tag, index)
        index += 1
    raise ActionError("element %r is not in the document" % (element,))


def resolve_reference(document, ref: str):
    """Find the element named by ``ref`` in ``document``."""
    if ":" not in ref:
        raise ActionError("bad element reference %r" % (ref,))
    tag, _sep, index_text = ref.partition(":")
    if not (index_text.isascii() and index_text.isdigit()):
        raise ActionError("bad element reference %r" % (ref,))
    # An index wider than a 64-bit count names no element; checking the
    # width first also spares int() its ValueError past 4300 digits.
    index_text = index_text.lstrip("0") or "0"
    if len(index_text) > 18:
        raise ActionError("no element for reference %r" % (ref,))
    wanted = int(index_text)
    index = 0
    for candidate in document.descendant_elements():
        if candidate.tag != tag:
            continue
        if index == wanted:
            return candidate
        index += 1
    raise ActionError("no element for reference %r" % (ref,))
