"""Soak tests: long randomized sessions stay correct and bounded."""

import pytest

from repro.core import CoBrowsingSession
from repro.workloads import build_lan
from repro.workloads.surf import SurfOperation, generate_trace, run_surf


class TestTraceGeneration:
    def test_deterministic(self):
        first = generate_trace(7, 50)
        second = generate_trace(7, 50)
        assert [(o.kind, o.argument) for o in first] == [
            (o.kind, o.argument) for o in second
        ]

    def test_starts_with_a_visit(self):
        assert generate_trace(1, 10)[0].kind == "visit"

    def test_length_respected(self):
        assert len(generate_trace(3, 25)) == 25
        with pytest.raises(ValueError):
            generate_trace(3, 0)

    def test_mixes_operation_kinds(self):
        kinds = {op.kind for op in generate_trace(11, 200)}
        assert kinds == {"visit", "mutate", "idle", "participant_fill"}

    def test_bad_operation_rejected(self):
        with pytest.raises(ValueError):
            SurfOperation("teleport")


class TestSoakSession:
    def run_soak(self, seed, length, cache_mode=True):
        testbed = build_lan()
        session = CoBrowsingSession(
            testbed.host_browser, cache_mode=cache_mode, poll_interval=0.5
        )
        trace = generate_trace(seed, length)
        report = testbed.run(
            run_surf(testbed, session, trace), limit=1e7
        )
        return testbed, session, report

    def test_fifty_operation_session_stays_synchronized(self):
        _testbed, _session, report = self.run_soak(seed=42, length=50)
        assert report.syncs_verified >= report.pages_visited
        assert report.pages_visited > 5

    def test_non_cache_mode_soak(self):
        _testbed, _session, report = self.run_soak(seed=43, length=30, cache_mode=False)
        assert report.pages_visited > 3
        assert report.syncs_verified > 0

    def test_agent_state_stays_bounded(self):
        """Per-state envelope caches and participant queues do not grow
        with session length."""
        _testbed, session, _report = self.run_soak(seed=44, length=60)
        agent = session.agent
        # Only the current document state's envelopes are retained.
        assert len(agent._wire_templates) <= 1
        for state in agent.participants.values():
            assert state.outbound_actions == []
        assert agent.pending_actions == []

    def test_generation_count_tracks_document_states(self):
        """Generation runs at most once per (document state, mode)."""
        testbed, session, report = self.run_soak(seed=45, length=40)
        changes = report.pages_visited + report.mutations + report.participant_fills
        # Form fills mutate the host document too, so allow them; every
        # generation must correspond to some document change.
        assert session.agent.generation_count <= 2 * changes + 1

    def test_deterministic_replay(self):
        first = self.run_soak(seed=46, length=25)[2]
        second = self.run_soak(seed=46, length=25)[2]
        assert first.sim_seconds == second.sim_seconds
        assert first.pages_visited == second.pages_visited
        assert first.syncs_verified == second.syncs_verified
