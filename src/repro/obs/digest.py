"""Mergeable client-measured telemetry digests (the fleet plane's data model).

Every observability layer so far measures at the *host*: staleness is
inferred from poll arrival times, which diverges from what a participant
actually experiences once relays re-serve content and held transports
park polls.  This module is the participant side of the fix — a compact,
**mergeable** digest each snippet accumulates locally and piggybacks
upstream inside its existing poll body:

* :class:`LogBucketSketch` — a bounded-size log2-bucketed histogram over
  non-negative integer samples.  At most ~65 sparse buckets regardless
  of sample count; merge is per-bucket addition (associative and
  commutative), so relay tiers can fold their whole subtree into one
  sketch without losing the fleet percentiles.
* :class:`MemberDelta` — one member's counters (polls, applies, resyncs,
  connection errors, bytes seen, per-transport-mode poll counts) plus an
  apply-latency sketch (µs, wall clock) and an end-to-end staleness
  sketch (ms, sim ``now − envelope doc_time`` at apply time).
* :class:`TelemetryDigest` — a set of member deltas with a JSON wire
  encoding and **fold-under-cap**: when the compact encoding exceeds the
  byte cap, per-member records collapse into one aggregate record
  (member id ``*``) that still conserves every counter exactly — the
  blob stays bounded per tier, identity degrades honestly (the fold is
  counted, never silent).
* :class:`ClientTelemetry` — the per-member reporter: accumulates into a
  *pending* digest, snapshots it into an in-flight slot when a poll
  carries it, commits on a 200 and rolls back into pending on any
  failure.  Delta temporality with exactly-once transfer per hop, which
  is what makes ``host totals == Σ member locals`` a testable identity.

Strictly opt-in: nothing here touches the wire unless a reporter is
attached, and an attached reporter with nothing pending adds no bytes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "FOLDED_ID",
    "ClientTelemetry",
    "LogBucketSketch",
    "MemberDelta",
    "TelemetryDigest",
    "encoded_bytes",
]

#: Digest wire-format version.
DIGEST_VERSION = 1

#: Member id of a fold-under-cap aggregate record.
FOLDED_ID = "*"

#: Highest sketch bucket: bucket ``b`` holds ``[2**(b-1), 2**b)``, so 64
#: covers the 64-bit value range.
MAX_BUCKET = 64

#: Every integer a digest record carries (a count, a sum, a sample bound)
#: lies in ``[0, 2**64)``: the rollups convert them to floats.
_INT_LIMIT = 2**64

#: The transport modes a member's poll counts may name: the snippet
#: records only these (``repro.core.transport.TRANSPORT_MODES``, kept
#: apart so the fleet plane does not import the core).
POLL_MODES = ("poll", "longpoll", "push")

#: Compact size of the largest deepest-fold blob: one ``*`` record with
#: every integer at ``2**64 - 1``, all three modes and no bucket lists.
#: The only honest blob that can exceed a small byte cap.
DEEPEST_FOLD_BYTES = 582


def _count(value, what: str) -> int:
    """``value`` when it is a JSON integer in ``[0, 2**64)`` (a bool or a
    float is not); ValueError otherwise."""
    if type(value) is not int or not 0 <= value < _INT_LIMIT:
        raise ValueError("%s must be an integer in [0, 2**64)" % what)
    return value


def _object(record: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent); ValueError
    for any other value."""
    value = record.get(key, {})
    if type(value) is not dict:
        raise ValueError("%s must be an object" % key)
    return value


def encoded_bytes(blob) -> int:
    """The compact-JSON size of a digest blob — the byte-cap currency
    (the poll body itself may add framing; the cap governs the digest).
    Key order does not change the byte count, so no canonical sort is
    paid on this hot path."""
    return len(json.dumps(blob, separators=(",", ":")))


class LogBucketSketch:
    """Bounded log2-bucketed histogram over non-negative int samples.

    Bucket 0 holds the value 0; bucket ``b`` (>=1) holds values in
    ``[2**(b-1), 2**b)``, so a 64-bit value range needs at most 65
    buckets — the size bound that keeps digests cheap to ship and merge.
    Count, sum, min and max are tracked exactly; percentiles are
    nearest-rank over the buckets with a geometric-midpoint estimate,
    clamped into the exact ``[min, max]`` envelope.
    """

    __slots__ = ("buckets", "count", "total", "min_value", "max_value")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None

    def record(self, value) -> None:
        """Add one sample (negative values clamp to 0)."""
        v = int(value)
        if v < 0:
            v = 0
        bucket = v.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += v
        if self.min_value is None or v < self.min_value:
            self.min_value = v
        if self.max_value is None or v > self.max_value:
            self.max_value = v

    def merge(self, other: "LogBucketSketch") -> "LogBucketSketch":
        """Fold ``other`` in (per-bucket addition; order-independent)."""
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min_value is not None and (
            self.min_value is None or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        if other.max_value is not None and (
            self.max_value is None or other.max_value > self.max_value
        ):
            self.max_value = other.max_value
        return self

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(-(-q * self.count // 100)))  # ceil without floats
        rank = min(rank, self.count)
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                estimate = 0.0 if bucket == 0 else 2.0 ** (bucket - 0.5)
                if self.min_value is not None:
                    estimate = max(estimate, float(self.min_value))
                if self.max_value is not None:
                    estimate = min(estimate, float(self.max_value))
                return estimate
        # Ranks past the bucketed samples belong to samples merged from
        # bucket-less records (the deepest fold level): the exact max
        # bounds them.
        return float(self.max_value or 0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self, include_buckets: bool = True) -> Optional[Dict[str, object]]:
        """The wire record, or None when empty.  ``include_buckets=False``
        is the deepest fold level: exact count/sum/min/max survive, the
        distribution does not.  Buckets ride only when they hold every
        sample, so a record's bucket counts always sum to its ``n``: a
        sketch that merged a bucket-less record ships bucket-less too."""
        if self.count == 0:
            return None
        record: Dict[str, object] = {
            "n": self.count,
            "s": self.total,
            "lo": self.min_value,
            "hi": self.max_value,
        }
        if include_buckets and sum(self.buckets.values()) == self.count:
            record["b"] = [[b, self.buckets[b]] for b in sorted(self.buckets)]
        return record

    @classmethod
    def from_dict(cls, record) -> "LogBucketSketch":
        """Decode a wire record (anything but an object decodes empty).
        Raises ValueError unless ``n``, ``s``, ``lo`` and ``hi`` are
        integers in ``[0, 2**64)`` (``lo``/``hi`` may be null) and ``b``,
        when present, is a list of ``[index, count]`` pairs with index
        0–:data:`MAX_BUCKET` whose counts sum to ``n``."""
        sketch = cls()
        if not isinstance(record, dict):
            return sketch
        sketch.count = _count(record.get("n", 0), "sketch n")
        sketch.total = _count(record.get("s", 0), "sketch s")
        lo, hi = record.get("lo"), record.get("hi")
        sketch.min_value = None if lo is None else _count(lo, "sketch lo")
        sketch.max_value = None if hi is None else _count(hi, "sketch hi")
        pairs = record.get("b")
        if pairs is None:
            return sketch
        if type(pairs) is not list:
            raise ValueError("sketch b must be a list")
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError("a sketch bucket is an [index, count] pair")
            bucket = _count(pair[0], "bucket index")
            if bucket > MAX_BUCKET:
                raise ValueError("bucket index above %d" % MAX_BUCKET)
            sketch.buckets[bucket] = sketch.buckets.get(bucket, 0) + _count(
                pair[1], "bucket count"
            )
        if sum(sketch.buckets.values()) != sketch.count:
            raise ValueError("bucket counts must sum to the sketch's n")
        return sketch

    def copy(self) -> "LogBucketSketch":
        clone = LogBucketSketch()
        clone.buckets = dict(self.buckets)
        clone.count = self.count
        clone.total = self.total
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    def __eq__(self, other):
        if not isinstance(other, LogBucketSketch):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
            and self.min_value == other.min_value
            and self.max_value == other.max_value
        )

    def __repr__(self):
        return "LogBucketSketch(n=%d, sum=%d, %d buckets)" % (
            self.count,
            self.total,
            len(self.buckets),
        )


class MemberDelta:
    """One member's accumulated telemetry (or a folded aggregate).

    ``weight`` counts the member-records this delta represents: 1 for a
    live member's own delta, the collapsed-record count for a
    fold-under-cap aggregate.  Counters are plain sums, so merging is
    associative — the property every conservation test leans on.
    """

    COUNTERS = (
        "polls",
        "content_updates",
        "delta_updates",
        "resyncs",
        "connection_errors",
        "bytes_seen",
    )

    __slots__ = ("member_id", "weight", "counters", "mode_polls", "apply", "staleness")

    def __init__(self, member_id: str, weight: int = 1):
        self.member_id = member_id
        self.weight = weight
        self.counters: Dict[str, int] = {key: 0 for key in self.COUNTERS}
        #: Poll counts per transport mode in effect at send time.
        self.mode_polls: Dict[str, int] = {}
        #: Wall-clock apply latency, microseconds.
        self.apply = LogBucketSketch()
        #: End-to-end staleness at apply time, milliseconds.
        self.staleness = LogBucketSketch()

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def merge_from(self, other: "MemberDelta") -> "MemberDelta":
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for mode, count in other.mode_polls.items():
            self.mode_polls[mode] = self.mode_polls.get(mode, 0) + count
        self.apply.merge(other.apply)
        self.staleness.merge(other.staleness)
        self.weight += other.weight
        return self

    @property
    def is_empty(self) -> bool:
        return (
            not any(self.counters.values())
            and self.apply.count == 0
            and self.staleness.count == 0
        )

    def to_dict(self, include_buckets: bool = True) -> Dict[str, object]:
        record: Dict[str, object] = {"id": self.member_id}
        if self.weight != 1:
            record["w"] = self.weight
        counters = {k: v for k, v in self.counters.items() if v}
        if counters:
            record["c"] = counters
        if self.mode_polls:
            record["m"] = dict(self.mode_polls)
        apply_record = self.apply.to_dict(include_buckets)
        if apply_record is not None:
            record["a"] = apply_record
        staleness_record = self.staleness.to_dict(include_buckets)
        if staleness_record is not None:
            record["s"] = staleness_record
        return record

    @classmethod
    def from_dict(cls, record) -> "MemberDelta":
        """Decode a wire record.  Raises ValueError unless ``id`` is a
        non-empty string, ``w`` a count, ``c`` an object of
        :attr:`COUNTERS` names to counts, ``m`` an object of
        :data:`POLL_MODES` names to counts, and ``a`` and ``s`` decode as
        sketches (a count is an integer in ``[0, 2**64)``)."""
        if not isinstance(record, dict):
            raise ValueError("member delta record must be an object")
        member_id = record.get("id")
        if type(member_id) is not str or not member_id:
            raise ValueError("member delta id must be a non-empty string")
        delta = cls(member_id, weight=_count(record.get("w", 1), "weight"))
        for key, value in _object(record, "c").items():
            if key not in delta.counters:
                raise ValueError("unknown counter %r" % key)
            delta.counters[key] = _count(value, key)
        for mode, count in _object(record, "m").items():
            if mode not in POLL_MODES:
                raise ValueError("unknown transport mode %r" % mode)
            delta.mode_polls[mode] = _count(count, "mode polls")
        if "a" in record:
            delta.apply = LogBucketSketch.from_dict(record["a"])
        if "s" in record:
            delta.staleness = LogBucketSketch.from_dict(record["s"])
        return delta

    def copy(self) -> "MemberDelta":
        clone = MemberDelta(self.member_id, weight=self.weight)
        clone.counters = dict(self.counters)
        clone.mode_polls = dict(self.mode_polls)
        clone.apply = self.apply.copy()
        clone.staleness = self.staleness.copy()
        return clone

    def __repr__(self):
        return "MemberDelta(%s, polls=%d, applies=%d)" % (
            self.member_id,
            self.counters.get("polls", 0),
            self.counters.get("content_updates", 0),
        )


class TelemetryDigest:
    """A mergeable set of member deltas with a bounded wire encoding."""

    __slots__ = ("members",)

    def __init__(self):
        self.members: Dict[str, MemberDelta] = {}

    @property
    def is_empty(self) -> bool:
        return all(delta.is_empty for delta in self.members.values())

    def member(self, member_id: str) -> MemberDelta:
        """The (created-on-demand) delta for one member id."""
        delta = self.members.get(member_id)
        if delta is None:
            delta = self.members[member_id] = MemberDelta(member_id)
        return delta

    def merge_member(self, delta: MemberDelta) -> None:
        mine = self.members.get(delta.member_id)
        if mine is None:
            self.members[delta.member_id] = delta.copy()
        else:
            mine.merge_from(delta)

    def merge(self, other: "TelemetryDigest") -> "TelemetryDigest":
        for delta in other.members.values():
            self.merge_member(delta)
        return self

    def totals(self) -> MemberDelta:
        """Everything folded into one aggregate (counters conserve)."""
        aggregate = MemberDelta(FOLDED_ID, weight=0)
        for delta in self.members.values():
            aggregate.merge_from(delta)
        return aggregate

    def fold(self) -> "TelemetryDigest":
        """Collapse every member record into one ``*`` aggregate."""
        folded = TelemetryDigest()
        if self.members:
            folded.members[FOLDED_ID] = self.totals()
        return folded

    def copy(self) -> "TelemetryDigest":
        clone = TelemetryDigest()
        for member_id, delta in self.members.items():
            clone.members[member_id] = delta.copy()
        return clone

    def encode(self, byte_cap: Optional[int] = None) -> Dict[str, object]:
        """The JSON-ready blob, folded as needed to honour ``byte_cap``.

        Fold levels, tried in order until the compact encoding fits:
        per-member records; one ``*`` aggregate (counters and sketches
        conserve exactly, identity folds — the record's ``w`` counts the
        collapsed members); the aggregate with bucket lists dropped
        (count/sum/min/max survive, the distribution does not).
        """
        blob = self._encode(self.members.values(), include_buckets=True)
        if byte_cap is None or encoded_bytes(blob) <= byte_cap:
            return blob
        folded = self.fold()
        blob = folded._encode(folded.members.values(), include_buckets=True)
        if encoded_bytes(blob) <= byte_cap:
            return blob
        return folded._encode(folded.members.values(), include_buckets=False)

    @staticmethod
    def _encode(deltas: Iterable[MemberDelta], include_buckets: bool) -> Dict[str, object]:
        members = [
            delta.to_dict(include_buckets)
            for delta in sorted(deltas, key=lambda d: d.member_id)
            if not delta.is_empty
        ]
        return {"v": DIGEST_VERSION, "members": members}

    @classmethod
    def decode(cls, blob) -> "TelemetryDigest":
        """Parse a wire blob; raises ValueError on malformed input."""
        if not isinstance(blob, dict):
            raise ValueError("digest blob must be a dict")
        if blob.get("v") != DIGEST_VERSION:
            raise ValueError("unknown digest version")
        digest = cls()
        records = blob.get("members")
        if not isinstance(records, list):
            raise ValueError("digest blob has no members list")
        for record in records:
            digest.merge_member(MemberDelta.from_dict(record))
        return digest

    @classmethod
    def admit(cls, blob, byte_cap: int) -> Tuple["TelemetryDigest", int]:
        """Decode a child's blob for a sink that folds under ``byte_cap``;
        return it with its compact size.  Raises ValueError when it does
        not decode, or when it is over the cap without being the
        encoder's deepest fold (:meth:`encode`), which no cap shrinks
        further: so one poll adds at most a cap's worth of records."""
        digest = cls.decode(blob)
        size = encoded_bytes(blob)
        if size > byte_cap:
            folded = digest.members.get(FOLDED_ID)
            if not (
                size <= DEEPEST_FOLD_BYTES
                and len(blob["members"]) == 1
                and folded is not None
                and not folded.apply.buckets
                and not folded.staleness.buckets
            ):
                raise ValueError("%d-byte digest over the %d-byte cap" % (size, byte_cap))
        return digest, size

    def __repr__(self):
        return "TelemetryDigest(%d members)" % len(self.members)


class ClientTelemetry:
    """The participant-side reporter: accumulate, piggyback, conserve.

    Delta temporality with commit-on-response: records accumulate into
    ``pending``; :meth:`snapshot` moves pending into a token-keyed
    in-flight slot when a poll carries it; :meth:`commit` drops the slot
    on a 200, :meth:`rollback` re-merges it into pending on any failure.
    Several snapshots can be in flight at once (a dedicated action flush
    races a parked long poll), hence the token map rather than a single
    slot.  A relay's reporter doubles as its downstream *sink*: child
    digests arrive via :meth:`ingest` and ride the next upstream poll
    merged with the relay's own delta — one bounded blob per tier.

    ``local`` is the all-time ledger of this member's own records (never
    cleared, never shipped), giving tests the exact conservation
    identity ``host totals + Σ unreported() == Σ locals``.
    """

    def __init__(
        self, member_id: str, byte_cap: int = 2048, flush_interval: float = 2.0
    ):
        self.member_id = member_id
        #: Compact-encoding budget per piggybacked blob.
        self.byte_cap = byte_cap
        #: Minimum seconds between clock-gated flushes (see
        #: :meth:`snapshot`): recording stays cheap counter bumps, and
        #: the encode/decode cost amortizes over many polls.
        self.flush_interval = flush_interval
        self._last_flush: Optional[float] = None
        self.pending = TelemetryDigest()
        #: Own records already acked upstream; :attr:`local` derives the
        #: all-time ledger from this plus pending and in-flight, so the
        #: per-poll recording path bumps a single delta.
        self._shipped = MemberDelta(member_id)
        self._own_cache: Optional[MemberDelta] = None
        self._in_flight: Dict[int, TelemetryDigest] = {}
        self._next_token = 0
        #: Malformed child blobs dropped by :meth:`ingest`.
        self.ingest_errors = 0

    # -- recording (own signals) -------------------------------------------------------

    def _own(self) -> MemberDelta:
        # Cached across calls: snapshot/rollback invalidate; ingest only
        # ever merges *into* an existing own delta, never replaces it.
        own = self._own_cache
        if own is None:
            own = self._own_cache = self.pending.member(self.member_id)
        return own

    def record_poll(self, n_bytes: int, mode: str) -> None:
        """One poll round trip completed: response bytes seen, mode used."""
        own = self._own()
        counters = own.counters
        counters["polls"] += 1
        counters["bytes_seen"] += int(n_bytes)
        own.mode_polls[mode] = own.mode_polls.get(mode, 0) + 1

    def record_apply(
        self, staleness_ms, apply_seconds: float, delta: bool = False
    ) -> None:
        """A content envelope was applied: client-measured staleness at
        apply time (ms) and the in-place update's wall cost (seconds,
        stored as µs)."""
        own = self._own()
        counters = own.counters
        counters["content_updates"] += 1
        if delta:
            counters["delta_updates"] += 1
        own.staleness.record(staleness_ms)
        own.apply.record(int(apply_seconds * 1e6))

    def record_resync(self) -> None:
        """A delta apply failed and forced a full-envelope resync."""
        self._own().counters["resyncs"] += 1

    def record_connection_error(self) -> None:
        self._own().counters["connection_errors"] += 1

    @property
    def local(self) -> MemberDelta:
        """All-time ledger of this member's own records — acked plus
        in-flight plus pending (conservation ground truth, never
        shipped as such)."""
        ledger = self._shipped.copy()
        for digest in self._in_flight.values():
            own = digest.members.get(self.member_id)
            if own is not None:
                ledger.merge_from(own)
        own = self.pending.members.get(self.member_id)
        if own is not None:
            ledger.merge_from(own)
        ledger.weight = 1
        return ledger

    # -- subtree intake (relay sink) ---------------------------------------------------

    def ingest(self, blob, t=None) -> None:
        """Merge a downstream child's digest blob into pending (the
        relay-tier sink half of the duck-typed telemetry interface;
        malformed or over-cap blobs (:meth:`TelemetryDigest.admit`) are
        counted and dropped, never raised)."""
        try:
            digest, _size = TelemetryDigest.admit(blob, self.byte_cap)
        except ValueError:
            self.ingest_errors += 1
            return
        self.pending.merge(digest)

    # -- transfer (exactly-once per hop) -----------------------------------------------

    def snapshot(
        self, now: Optional[float] = None
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """``(token, blob)`` moving pending into an in-flight slot, or
        None when nothing is pending (the idle wire stays untouched).

        With a clock (``now``), flushes are throttled to one per
        :attr:`flush_interval` — between flushes the poll pays only this
        time check, keeping the telemetry plane's per-poll cost
        amortized.  The first call always flushes; callers without a
        clock (tests, manual drains) flush on every call.
        """
        if now is not None:
            # Clock gate first: a throttled poll pays one comparison,
            # not a digest scan.
            last = self._last_flush
            if last is not None and now - last < self.flush_interval:
                return None
        if self.pending.is_empty:
            return None
        if now is not None:
            self._last_flush = now
        self._next_token += 1
        token = self._next_token
        digest, self.pending = self.pending, TelemetryDigest()
        self._own_cache = None
        self._in_flight[token] = digest
        return token, digest.encode(self.byte_cap)

    def commit(self, token: int) -> None:
        """The poll carrying ``token``'s snapshot got its 200: fold the
        snapshot's own record into the acked ledger."""
        digest = self._in_flight.pop(token, None)
        if digest is not None:
            own = digest.members.get(self.member_id)
            if own is not None:
                self._shipped.merge_from(own)
                self._shipped.weight = 1

    def rollback(self, token: int) -> None:
        """The poll failed: fold the snapshot back into pending so the
        records ride the next attempt instead of vanishing."""
        digest = self._in_flight.pop(token, None)
        if digest is not None:
            self.pending.merge(digest)
            self._own_cache = None

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def unreported(self) -> TelemetryDigest:
        """Everything recorded or ingested here but not yet committed
        upstream (pending plus every in-flight snapshot)."""
        merged = self.pending.copy()
        for digest in self._in_flight.values():
            merged.merge(digest)
        return merged

    def __repr__(self):
        return "ClientTelemetry(%s, pending=%d members, %d in flight)" % (
            self.member_id,
            len(self.pending.members),
            len(self._in_flight),
        )
