"""The reference-builder oracle for served poll envelopes.

:func:`repro.core.xmlformat.build_envelope` is the reference encoder of
the Fig. 4 envelope.  A served body passes when it is exactly the
reference encoding of the content it carries, carries the member's own
queued actions, and — if it is a delta — is strictly shorter than the
full envelope of the same state carrying the same actions.
"""

from repro.core import encode_actions
from repro.core.xmlformat import build_envelope, parse_envelope


def reference_full_length(full_body, user_actions_json):
    """Wire length of the full envelope ``full_body`` re-encoded by the
    reference builder with ``user_actions_json`` in its userActions."""
    full = parse_envelope(full_body.decode("ascii"))
    full.user_actions_json = user_actions_json
    return len(build_envelope(full).encode("ascii"))


def assert_reference_envelope(body, actions, full_body=None):
    """Check one served envelope body against the reference builder.

    ``full_body`` is the full envelope of the same document state and
    mode group (any actions); it is required when ``body`` is a delta.
    Returns the parsed :class:`~repro.core.xmlformat.NewContent`.
    """
    content = parse_envelope(body.decode("ascii"))
    assert build_envelope(content).encode("ascii") == body
    assert content.user_actions_json == encode_actions(actions)
    if content.is_delta:
        assert full_body is not None, "a delta needs its full envelope to compare"
        assert len(body) < reference_full_length(full_body, content.user_actions_json)
    return content
