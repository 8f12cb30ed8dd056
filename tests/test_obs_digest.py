"""The fleet telemetry plane's data model: sketches, digests, reporters.

Covers the mergeable-digest tentpole at the unit level: log-bucket
sketch exactness and percentile clamping, member-delta and digest merge
conservation, the three fold-under-cap encoding levels, wire round
trips, and the ClientTelemetry commit/rollback protocol that makes
``host totals + Σ unreported == Σ locals`` an exact identity.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transport import TRANSPORT_MODES
from repro.obs import (
    FOLDED_ID,
    ClientTelemetry,
    FleetView,
    LogBucketSketch,
    MemberDelta,
    TelemetryDigest,
    encoded_bytes,
)
from repro.obs.digest import DEEPEST_FOLD_BYTES, POLL_MODES


def sketch_of(*values):
    sketch = LogBucketSketch()
    for value in values:
        sketch.record(value)
    return sketch


class TestLogBucketSketch:
    def test_empty_sketch(self):
        sketch = LogBucketSketch()
        assert sketch.count == 0
        assert sketch.percentile(95) == 0.0
        assert sketch.mean == 0.0
        assert sketch.to_dict() is None

    def test_exact_aggregates(self):
        sketch = sketch_of(0, 1, 5, 100, 1000)
        assert sketch.count == 5
        assert sketch.total == 1106
        assert sketch.min_value == 0
        assert sketch.max_value == 1000
        assert sketch.mean == pytest.approx(221.2)

    def test_bucket_layout_is_bit_length(self):
        # Bucket 0 holds the value 0; bucket b holds [2^(b-1), 2^b).
        sketch = sketch_of(0, 1, 2, 3, 4, 7, 8)
        assert sketch.buckets == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1}

    def test_negative_values_clamp_to_zero(self):
        sketch = sketch_of(-5)
        assert sketch.min_value == 0
        assert sketch.buckets == {0: 1}

    def test_bounded_size_regardless_of_samples(self):
        sketch = LogBucketSketch()
        for value in range(10000):
            sketch.record(value)
        assert len(sketch.buckets) <= 15  # log2(10000) + the zero bucket
        assert sketch.count == 10000

    def test_percentile_clamped_into_exact_envelope(self):
        # The geometric-midpoint estimate can never leave [min, max].
        sketch = sketch_of(900, 901, 902)
        for q in (1, 50, 95, 100):
            assert 900 <= sketch.percentile(q) <= 902

    def test_percentile_orders_buckets(self):
        sketch = sketch_of(*([1] * 95), *([1000] * 5))
        assert sketch.percentile(50) < 2.0  # low ranks stay in bucket 1
        assert sketch.percentile(99) >= 512.0

    def test_merge_is_per_bucket_addition(self):
        a = sketch_of(1, 100)
        b = sketch_of(100, 10000)
        a.merge(b)
        assert a.count == 4
        assert a.total == 10201
        assert (a.min_value, a.max_value) == (1, 10000)
        assert a.buckets[7] == 2  # both 100s share bucket 7

    def test_merge_with_empty_both_ways(self):
        a = sketch_of(5)
        a.merge(LogBucketSketch())
        assert a == sketch_of(5)
        b = LogBucketSketch()
        b.merge(sketch_of(5))
        assert b == sketch_of(5)

    def test_round_trip(self):
        sketch = sketch_of(0, 3, 900, 70000)
        assert LogBucketSketch.from_dict(sketch.to_dict()) == sketch

    def test_bucketless_record_keeps_exact_aggregates(self):
        sketch = sketch_of(3, 900)
        record = sketch.to_dict(include_buckets=False)
        assert "b" not in record
        revived = LogBucketSketch.from_dict(record)
        assert revived.count == 2
        assert revived.total == 903
        assert (revived.min_value, revived.max_value) == (3, 900)

    def test_from_dict_tolerates_junk(self):
        assert LogBucketSketch.from_dict(None).count == 0
        assert LogBucketSketch.from_dict("nope").count == 0

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.integers(0, 2**40), max_size=30),
        right=st.lists(st.integers(0, 2**40), max_size=30),
    )
    def test_merge_commutes(self, left, right):
        ab = sketch_of(*left).merge(sketch_of(*right))
        ba = sketch_of(*right).merge(sketch_of(*left))
        assert ab == ba

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(0, 2**40), min_size=1, max_size=30))
    def test_round_trip_property(self, values):
        sketch = sketch_of(*values)
        assert LogBucketSketch.from_dict(sketch.to_dict()) == sketch


class TestMemberDelta:
    def test_bump_and_empty(self):
        delta = MemberDelta("m1")
        assert delta.is_empty
        delta.bump("polls")
        delta.bump("bytes_seen", 512)
        assert not delta.is_empty
        assert delta.counters["polls"] == 1
        assert delta.counters["bytes_seen"] == 512

    def test_merge_from_sums_everything(self):
        a = MemberDelta("m1")
        a.bump("polls", 2)
        a.mode_polls["poll"] = 2
        a.staleness.record(100)
        b = MemberDelta("m1")
        b.bump("polls", 3)
        b.mode_polls["push"] = 3
        b.staleness.record(300)
        a.merge_from(b)
        assert a.counters["polls"] == 5
        assert a.mode_polls == {"poll": 2, "push": 3}
        assert a.staleness.count == 2
        assert a.weight == 2

    def test_round_trip(self):
        delta = MemberDelta("m1")
        delta.bump("content_updates", 4)
        delta.bump("delta_updates", 3)
        delta.mode_polls["longpoll"] = 9
        delta.apply.record(250)
        delta.staleness.record(42)
        revived = MemberDelta.from_dict(delta.to_dict())
        assert revived.member_id == "m1"
        assert revived.counters["content_updates"] == 4
        assert revived.mode_polls == {"longpoll": 9}
        assert revived.apply == delta.apply
        assert revived.staleness == delta.staleness

    def test_zero_counters_stay_off_the_wire(self):
        delta = MemberDelta("m1")
        delta.bump("polls")
        record = delta.to_dict()
        assert record["c"] == {"polls": 1}
        assert "w" not in record  # weight 1 is implicit

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ValueError):
            MemberDelta.from_dict("nope")
        with pytest.raises(ValueError):
            MemberDelta.from_dict({"c": {"polls": 1}})  # no id


def build_digest(members=3, polls=5):
    digest = TelemetryDigest()
    for index in range(members):
        delta = digest.member("member-%02d" % index)
        delta.bump("polls", polls)
        delta.bump("bytes_seen", 100 * (index + 1))
        delta.staleness.record(50 * (index + 1))
        delta.apply.record(10 * (index + 1))
        delta.mode_polls["poll"] = polls
    return digest


class TestTelemetryDigest:
    def test_merge_conserves_totals(self):
        a = build_digest(3)
        b = build_digest(2)  # overlapping ids: deltas must sum
        expected_polls = a.totals().counters["polls"] + b.totals().counters["polls"]
        a.merge(b)
        assert a.totals().counters["polls"] == expected_polls
        assert a.member("member-00").counters["polls"] == 10

    def test_fold_conserves_and_counts_weight(self):
        digest = build_digest(5)
        before = digest.totals()
        folded = digest.fold()
        assert list(folded.members) == [FOLDED_ID]
        after = folded.members[FOLDED_ID]
        assert after.counters == before.counters
        assert after.staleness == before.staleness
        assert after.weight == 5

    def test_encode_uncapped_keeps_member_identity(self):
        digest = build_digest(3)
        blob = digest.encode()
        ids = [record["id"] for record in blob["members"]]
        assert ids == ["member-00", "member-01", "member-02"]

    def test_encode_folds_under_cap(self):
        digest = build_digest(40)
        full_size = encoded_bytes(digest.encode())
        cap = full_size // 4
        blob = digest.encode(byte_cap=cap)
        assert encoded_bytes(blob) <= cap
        (record,) = blob["members"]
        assert record["id"] == FOLDED_ID
        assert record["w"] == 40
        # Counters conserve exactly through the fold.
        assert record["c"]["polls"] == digest.totals().counters["polls"]

    def test_encode_drops_buckets_at_the_deepest_fold(self):
        digest = build_digest(40)
        folded = digest.fold()
        with_buckets = encoded_bytes(
            folded._encode(folded.members.values(), include_buckets=True)
        )
        blob = digest.encode(byte_cap=with_buckets - 1)
        (record,) = blob["members"]
        assert record["id"] == FOLDED_ID
        assert "b" not in record["s"]
        assert record["s"]["n"] == 40  # exact count still conserves

    def test_decode_round_trip(self):
        digest = build_digest(3)
        revived = TelemetryDigest.decode(digest.encode())
        assert revived.totals().counters == digest.totals().counters
        assert revived.totals().staleness == digest.totals().staleness

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError):
            TelemetryDigest.decode("nope")
        with pytest.raises(ValueError):
            TelemetryDigest.decode({"v": 99, "members": []})
        with pytest.raises(ValueError):
            TelemetryDigest.decode({"v": 1})

    @settings(max_examples=40, deadline=None)
    @given(
        polls=st.lists(st.integers(0, 1000), min_size=1, max_size=12),
        cap=st.one_of(st.none(), st.integers(40, 4000)),
    )
    def test_encode_decode_conserves_counters(self, polls, cap):
        digest = TelemetryDigest()
        for index, count in enumerate(polls):
            delta = digest.member("m%d" % index)
            delta.bump("polls", count)
            delta.staleness.record(count)
        blob = digest.encode(byte_cap=cap)
        revived = TelemetryDigest.decode(blob)
        assert revived.totals().counters["polls"] == sum(polls)
        assert revived.totals().staleness.count == len(polls)


def deepest_fold_blob(value=2**64 - 1, **extra):
    """The encoder's deepest fold level with every integer at ``value``
    and all three modes: the largest honest blob no cap shrinks."""
    delta = MemberDelta(FOLDED_ID, weight=value)
    delta.counters = dict.fromkeys(MemberDelta.COUNTERS, value)
    delta.mode_polls = dict.fromkeys(POLL_MODES, value)
    for sketch in (delta.apply, delta.staleness):
        sketch.count = sketch.total = sketch.min_value = sketch.max_value = value
    record = delta.to_dict(include_buckets=False)
    record.update(extra)
    return {"v": 1, "members": [record]}


class TestAdmission:
    """A sink admits at most a byte cap's worth of records per blob, and
    only the modes the snippet records."""

    def test_poll_modes_are_the_transport_modes(self):
        assert POLL_MODES == TRANSPORT_MODES

    def test_unknown_mode_does_not_decode(self):
        with pytest.raises(ValueError):
            MemberDelta.from_dict({"id": "m1", "m": {"carrier-pigeon": 1}})
        assert MemberDelta.from_dict({"id": "m1", "m": {"push": 2}}).mode_polls == {"push": 2}

    def test_deepest_fold_bound_is_exact(self):
        assert encoded_bytes(deepest_fold_blob()) == DEEPEST_FOLD_BYTES

    def test_deepest_fold_is_admitted_over_a_small_cap(self):
        digest, size = TelemetryDigest.admit(deepest_fold_blob(), byte_cap=64)
        assert size == DEEPEST_FOLD_BYTES
        assert digest.members[FOLDED_ID].counters["polls"] == 2**64 - 1

    @pytest.mark.parametrize(
        "blob",
        [
            build_digest(40).encode(),
            build_digest(40).fold().encode(),  # a fold that kept its buckets
            deepest_fold_blob(pad="x" * 600),  # padded past the bound
            {"v": 1, "members": deepest_fold_blob(1)["members"] * 2},
        ],
        ids=["member-records", "fold-with-buckets", "padded-fold", "two-folds"],
    )
    def test_over_cap_blob_is_one_ingest_error(self, blob):
        assert encoded_bytes(blob) > 200
        relay = ClientTelemetry("relay-1", byte_cap=200)
        relay.ingest(blob)
        assert relay.ingest_errors == 1 and relay.pending.is_empty
        view = FleetView(byte_cap=200)
        view.ingest(blob)
        assert view.ingest_errors == 1 and view.digests_ingested == 0
        assert view.member_count == 0 and view.totals().is_empty

    @settings(max_examples=40, deadline=None)
    @given(
        polls=st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
        cap=st.integers(40, 4000),
    )
    def test_the_encoder_output_is_always_admitted(self, polls, cap):
        digest = TelemetryDigest()
        for index, count in enumerate(polls):
            delta = digest.member("member-%03d" % index)
            delta.bump("polls", count)
            delta.mode_polls[POLL_MODES[index % 3]] = count
            delta.staleness.record(count)
            delta.apply.record(index)
        admitted, _size = TelemetryDigest.admit(digest.encode(byte_cap=cap), cap)
        assert admitted.totals().counters["polls"] == sum(polls)


class TestClientTelemetry:
    def test_idle_reporter_ships_nothing(self):
        reporter = ClientTelemetry("m1")
        assert reporter.snapshot() is None

    def test_commit_clears_unreported(self):
        reporter = ClientTelemetry("m1")
        reporter.record_poll(256, "poll")
        token, blob = reporter.snapshot()
        assert blob["members"][0]["id"] == "m1"
        assert reporter.in_flight == 1
        reporter.commit(token)
        assert reporter.in_flight == 0
        assert reporter.unreported().is_empty
        # The all-time ledger survives the commit.
        assert reporter.local.counters["polls"] == 1

    def test_rollback_rides_the_next_poll(self):
        reporter = ClientTelemetry("m1")
        reporter.record_poll(256, "poll")
        token, _blob = reporter.snapshot()
        reporter.rollback(token)
        assert reporter.in_flight == 0
        token2, blob2 = reporter.snapshot()
        assert token2 != token
        assert blob2["members"][0]["c"]["polls"] == 1

    def test_concurrent_in_flight_snapshots(self):
        # A dedicated action flush can race a parked long poll: both
        # snapshots stay accounted until their own response arrives.
        reporter = ClientTelemetry("m1")
        reporter.record_poll(100, "longpoll")
        token_a, _ = reporter.snapshot()
        reporter.record_poll(200, "longpoll")
        token_b, _ = reporter.snapshot()
        assert reporter.in_flight == 2
        assert reporter.unreported().totals().counters["polls"] == 2
        reporter.commit(token_b)
        reporter.rollback(token_a)
        assert reporter.unreported().totals().counters["polls"] == 1

    def test_record_apply_units(self):
        reporter = ClientTelemetry("m1")
        reporter.record_apply(1500, 0.002, delta=True)
        own = reporter.pending.member("m1")
        assert own.counters["content_updates"] == 1
        assert own.counters["delta_updates"] == 1
        assert own.staleness.max_value == 1500  # milliseconds
        assert own.apply.max_value == 2000  # microseconds

    def test_resync_and_connection_error_counters(self):
        reporter = ClientTelemetry("m1")
        reporter.record_resync()
        reporter.record_connection_error()
        own = reporter.pending.member("m1")
        assert own.counters["resyncs"] == 1
        assert own.counters["connection_errors"] == 1

    def test_relay_sink_merges_children_into_next_snapshot(self):
        child = ClientTelemetry("leaf")
        child.record_poll(64, "poll")
        token, blob = child.snapshot()
        relay = ClientTelemetry("relay-1")
        relay.record_poll(128, "poll")
        relay.ingest(blob, t=1.0)
        child.commit(token)
        _token, merged = relay.snapshot()
        ids = sorted(record["id"] for record in merged["members"])
        assert ids == ["leaf", "relay-1"]

    def test_ingest_counts_malformed_blobs(self):
        relay = ClientTelemetry("relay-1")
        relay.ingest({"v": 42})
        relay.ingest("garbage")
        assert relay.ingest_errors == 2
        assert relay.pending.is_empty

    def test_snapshot_honours_byte_cap(self):
        relay = ClientTelemetry("relay-1", byte_cap=160)
        for index in range(30):
            child = ClientTelemetry("leaf-%02d" % index)
            child.record_poll(100, "poll")
            _t, blob = child.snapshot()
            relay.ingest(blob)
        _token, merged = relay.snapshot()
        assert encoded_bytes(merged) <= 160
        (record,) = merged["members"]
        assert record["id"] == FOLDED_ID

    @settings(max_examples=40, deadline=None)
    @given(
        outcomes=st.lists(st.sampled_from(["ok", "fail", "skip"]), max_size=20)
    )
    def test_conservation_identity_under_failures(self, outcomes):
        # However commits and rollbacks interleave, nothing recorded is
        # ever double-counted or lost before its commit:
        #   committed + unreported == local ledger.
        reporter = ClientTelemetry("m1")
        committed = TelemetryDigest()
        for outcome in outcomes:
            reporter.record_poll(10, "poll")
            if outcome == "skip":
                continue  # poll without a snapshot (telemetry parked)
            snap = reporter.snapshot()
            if snap is None:
                continue
            token, blob = snap
            if outcome == "ok":
                committed.merge(TelemetryDigest.decode(blob))
                reporter.commit(token)
            else:
                reporter.rollback(token)
        observed = committed.totals().counters["polls"] + reporter.unreported().totals().counters.get("polls", 0)
        assert observed == reporter.local.counters["polls"]
