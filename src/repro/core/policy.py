"""Co-browsing moderation policies (paper §3.3).

Each session is hosted and moderated by the co-browsing host.  When a
participant's action arrives, the policy decides whether RCB-Agent
performs it immediately, holds it for the host's explicit confirmation,
or ignores it.  The paper deliberately leaves policy specification
application-dependent; these classes cover the behaviours the sessions
here use.
"""

from __future__ import annotations

from .actions import UserAction

__all__ = [
    "ModerationPolicy",
    "OpenPolicy",
    "ObserveOnlyPolicy",
    "ConfirmPolicy",
    "PendingAction",
]


class PendingAction:
    """An action held for host confirmation."""

    __slots__ = ("participant_id", "action")

    def __init__(self, participant_id: str, action: UserAction):
        self.participant_id = participant_id
        self.action = action

    def __repr__(self):
        return "PendingAction(%s, %r)" % (self.participant_id, self.action)


class ModerationPolicy:
    """Decides the fate of each incoming participant action."""

    #: Decision constants.
    APPLY = "apply"
    HOLD = "hold"
    DROP = "drop"

    def decide(self, participant_id: str, action: UserAction) -> str:
        """Return APPLY, HOLD, or DROP for this action."""
        raise NotImplementedError


class OpenPolicy(ModerationPolicy):
    """Every participant's actions are applied immediately — the typical
    co-shopping configuration where anyone may navigate."""

    def decide(self, participant_id: str, action: UserAction) -> str:
        """Return APPLY, HOLD, or DROP for this action."""
        return self.APPLY


class ObserveOnlyPolicy(ModerationPolicy):
    """Participants watch; their actions are dropped (online-training
    style sessions where the instructor presides)."""

    def decide(self, participant_id: str, action: UserAction) -> str:
        """Return APPLY, HOLD, or DROP for this action."""
        return self.DROP


class ConfirmPolicy(ModerationPolicy):
    """Actions are held until the host inspects and confirms them."""

    #: Pointer/scroll mirroring is cosmetic and never needs approval.
    _AUTO_APPLY_KINDS = frozenset(("mousemove", "scroll"))

    def decide(self, participant_id: str, action: UserAction) -> str:
        """Return APPLY, HOLD, or DROP for this action."""
        if action.kind in self._AUTO_APPLY_KINDS:
            return self.APPLY
        return self.HOLD
