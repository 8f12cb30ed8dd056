"""Delta envelopes: incremental DOM updates over the polling protocol.

The baseline protocol regenerates and ships the *entire* cloned page to
every participant on each document change (paper §4.1.2).  For small
edits — one text node on a large page — that dominates response size
and the per-KB generation cost.  This module provides the diff engine
behind the ``<delta>`` envelope section: the agent retains a canonical
snapshot of each generated document state, diffs the participant's
last-acknowledged snapshot against the current one, and ships a compact
list of node operations instead of the whole page.  Ajax-Snippet applies
the operations in place; any mismatch triggers a resync with a full
envelope, so deltas are purely an optimization — never a correctness
dependency.

**Canonical content tree.**  Both endpoints reason about the same shape:
an ``<html>`` element whose first child is ``<head>`` (holding the
envelope's hChild records) followed by the top elements
(body/frameset/noframes) in envelope order.  On the participant this is
exactly the post-update document with Ajax-Snippet's own ``<script>``
removed, so operations computed on canonical trees apply verbatim.

**Operations.**  Each op is a JSON-ready dict addressing a node by a
*section* (``head``, ``body``, ``frameset`` or ``noframes``) and a
*path* of child indices inside that section:

* ``{"op": "text",    "sec": s, "path": p, "data": d}`` — set Text data
* ``{"op": "comment", "sec": s, "path": p, "data": d}`` — set Comment data
* ``{"op": "attrs",   "sec": s, "path": p, "attrs": [[n, v], ...]}`` —
  replace an element's attribute list
* ``{"op": "replace", "sec": s, "path": p, "node": payload}`` — swap the
  node at ``p`` for a freshly built one
* ``{"op": "insert",  "sec": s, "path": p, "node": payload}`` — insert a
  node so it lands at index ``p[-1]``
* ``{"op": "remove",  "sec": s, "path": p}`` — remove the node at ``p``
* ``{"op": "top",     "sec": s, "attrs": [...]}`` — create the top
  element if missing, then replace its attributes
* ``{"op": "drop",    "sec": s}`` — remove an obsolete top element

Node payloads carry Text/Comment data raw (no HTML escaping round-trip,
which matters inside raw-text elements) and elements as ``outerHTML``
re-parsed in the target parent's context.

Ops are emitted so that *sequential* application is well defined: a
parent's child-list edits come before recursion into surviving children,
removals repeat at a fixed index, and insert indices are in final
(new-tree) coordinates.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

from ..html import Comment, Element, Text
from ..html.dom import Node, _ParentNode
from ..html.parser import parse_fragment
from ..html.serializer import SegmentCache, serialize_node_cached
from .xmlformat import NewContent

__all__ = [
    "DeltaError",
    "SECTION_NAMES",
    "apply_delta",
    "content_tree",
    "diff_trees",
]

#: Top-level sections an op may address (besides ``head``).
SECTION_NAMES = ("body", "frameset", "noframes")


class DeltaError(Exception):
    """A delta cannot be applied to this tree (the receiver resyncs)."""


# -- canonical content tree --------------------------------------------------------------


def content_tree(content: NewContent) -> Element:
    """Build the canonical ``<html>`` tree for an envelope's content.

    The tree goes through the same serialize/parse round trip the full
    update procedure uses on the participant, so snapshots diffed here
    are node-for-node identical to what participants actually hold.
    """
    html = Element("html")
    head = Element("head")
    html.append_child(head)
    for record in content.head_children:
        child = Element(record.tag, dict(record.attributes))
        child.inner_html = record.inner_html
        head.append_child(child)
    for top in content.top_elements:
        element = Element(top.name, dict(top.attributes))
        element.inner_html = top.inner_html
        html.append_child(element)
    return html


def _section(root: Element, name: str) -> Optional[Element]:
    for child in root.children:
        if child.tag == name:
            return child
    return None


# -- diff --------------------------------------------------------------------------------


def diff_trees(
    old_root: Element,
    new_root: Element,
    metrics=None,
    node: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
    cache: Optional[SegmentCache] = None,
) -> List[Dict]:
    """Operations turning ``old_root`` into ``new_root`` (canonical trees).

    Matched subtrees that are the *same object* (incremental snapshots
    share unchanged nodes) or carry equal DOM version stamps are skipped
    without descending or serializing — version draws are globally
    unique (:mod:`repro.html.dom`), so equality is a sound "identical
    subtree" certificate.  Serialized comparison keys are computed
    lazily and only for children that survive those short-circuits,
    making the diff O(changed region), not O(page).

    Comparison keys come from ``cache``, a
    :class:`~repro.html.serializer.SegmentCache` the caller keeps across
    diffs of the same snapshots (the agent keeps one beside its snapshot
    ring), so a snapshot node is serialized once while it stays cached,
    and a parent's key joins its children's cached strings.  Without
    one, the call uses a fresh cache of its own.

    With ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`),
    diff wall-time and op counts are published as ``delta_diff_seconds``
    / ``delta_diff_ops``, labeled by ``node``.  With ``stats`` (a dict),
    ``visited`` (parent pairs descended into), ``skipped`` (subtrees
    short-circuited) and ``serialized`` (comparison keys computed) are
    accumulated into it.
    """
    started = _time.perf_counter() if metrics is not None else 0.0
    if stats is not None:
        for key in ("visited", "skipped", "serialized"):
            stats.setdefault(key, 0)
    ctx = _DiffContext(stats, cache if cache is not None else SegmentCache())
    ops: List[Dict] = []

    old_head = _section(old_root, "head") or Element("head")
    new_head = _section(new_root, "head") or Element("head")
    _diff_children(old_head, new_head, "head", [], ops, ctx)

    old_tops = {el.tag: el for el in old_root.children if el.tag in SECTION_NAMES}
    new_tops = [el for el in new_root.children if el.tag in SECTION_NAMES]
    new_names = {el.tag for el in new_tops}
    for name in SECTION_NAMES:
        if name in old_tops and name not in new_names:
            ops.append({"op": "drop", "sec": name})
    for el in new_tops:
        old = old_tops.get(el.tag)
        if old is None:
            ops.append({"op": "top", "sec": el.tag, "attrs": _attr_list(el)})
            old = Element(el.tag)
        elif old is not el and old.attributes != el.attributes:
            ops.append({"op": "top", "sec": el.tag, "attrs": _attr_list(el)})
        if ctx.same_subtree(old, el):
            continue
        _diff_children(old, el, el.tag, [], ops, ctx)
    if metrics is not None:
        labels = {"node": node} if node else {}
        metrics.histogram("delta_diff_seconds", **labels).observe(
            _time.perf_counter() - started
        )
        metrics.counter("delta_diff_ops", **labels).inc(len(ops))
    return ops


def _attr_list(element: Element) -> List[List[str]]:
    return [[name, value] for name, value in element.attributes]


def _shallow_match(a: Node, b: Node) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Element):
        return a.tag == b.tag
    return True


class _DiffContext:
    """Per-diff scratch: cached serialization keys + skip accounting."""

    __slots__ = ("_keys", "cache", "counts")

    def __init__(self, counts: Optional[Dict[str, int]], cache: SegmentCache):
        self._keys: Dict[int, str] = {}
        self.cache = cache
        self.counts = counts

    def key(self, node: Node) -> str:
        """``node.to_html()`` through the snapshot-key cache, looked up
        at most once per node and diff."""
        node_id = id(node)
        text = self._keys.get(node_id)
        if text is None:
            text = serialize_node_cached(node, self.cache)
            self._keys[node_id] = text
            if self.counts is not None:
                self.counts["serialized"] += 1
        return text

    def signature(self, node: Node) -> tuple:
        """A value equal for two nodes exactly when :meth:`same_subtree`
        holds: equal version stamps certify equal serializations, so
        comparing the type, the tag and the markup decides it alone."""
        if isinstance(node, Element):
            return (Element, node.tag, self.key(node))
        return (type(node), node.data)

    def same_subtree(self, a: Node, b: Node) -> bool:
        """Deep equality, cheap-first: object identity, then version
        stamps (globally unique draws — equality certifies an identical
        subtree), then memoized serialized comparison."""
        if a is b:
            if self.counts is not None:
                self.counts["skipped"] += 1
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Element):
            if a.tag != b.tag:
                return False
            if a._subtree_version == b._subtree_version:
                if self.counts is not None:
                    self.counts["skipped"] += 1
                return True
            return self.key(a) == self.key(b)
        return a.data == b.data


def _node_payload(node: Node, ctx: _DiffContext) -> Dict:
    if isinstance(node, Text):
        return {"t": "text", "data": node.data}
    if isinstance(node, Comment):
        return {"t": "comment", "data": node.data}
    if isinstance(node, Element):
        return {"t": "element", "html": ctx.key(node)}
    raise DeltaError("cannot encode node %r" % (node,))


#: LCS table size bound; beyond it, gap alignment degrades gracefully to
#: positional pairing (still correct — just coarser ops, and oversized
#: diffs fall back to full envelopes anyway).
_LCS_CELL_LIMIT = 10000


def _diff_children(
    old_parent: _ParentNode,
    new_parent: _ParentNode,
    sec: str,
    path: List[int],
    ops: List[Dict],
    ctx: _DiffContext,
) -> None:
    if ctx.counts is not None:
        ctx.counts["visited"] += 1
    old = old_parent.child_nodes
    new = new_parent.child_nodes
    pairs = _match_children(old, new, ctx)

    matched_old = {oi for oi, _ni, _deep in pairs}
    matched_new = {ni for _oi, ni, _deep in pairs}
    # Removals first, in descending OLD coordinates (each removal leaves
    # smaller indices untouched), then insertions in ascending FINAL
    # coordinates: at insert time indices 0..k-1 are already final.
    for oi in sorted((i for i in range(len(old)) if i not in matched_old), reverse=True):
        ops.append({"op": "remove", "sec": sec, "path": path + [oi]})
    for ni in (i for i in range(len(new)) if i not in matched_new):
        ops.append(
            {"op": "insert", "sec": sec, "path": path + [ni], "node": _node_payload(new[ni], ctx)}
        )
    # Surviving pairs are recursed (or replaced) only after this list is
    # final, so their paths are plain new-tree coordinates.
    for oi, ni, deep in pairs:
        if deep:
            continue
        if _shallow_match(old[oi], new[ni]):
            _diff_matched(old[oi], new[ni], sec, path + [ni], ops, ctx)
        else:
            ops.append(
                {
                    "op": "replace",
                    "sec": sec,
                    "path": path + [ni],
                    "node": _node_payload(new[ni], ctx),
                }
            )


def _match_children(old: List[Node], new: List[Node], ctx: _DiffContext):
    """Pair up old/new child indices: ``[(oi, ni, deep_equal), ...]``.

    Deep-equal nodes are trimmed from both ends and anchored via an LCS
    over the middle, so an insertion between look-alike siblings does
    not misalign — and rewrite — everything after it.  Equality goes
    through :meth:`_DiffContext.same_subtree`, so shared or
    version-identical subtrees match without being serialized; only the
    changed middle window pays for comparison keys.  Between anchors,
    leftovers pair positionally; a shallow-matched pair recurses, a
    mismatched one becomes a replace.
    """
    pairs = []
    prefix = 0
    while prefix < len(old) and prefix < len(new) and ctx.same_subtree(old[prefix], new[prefix]):
        pairs.append((prefix, prefix, True))
        prefix += 1
    suffix = 0
    while (
        suffix < len(old) - prefix
        and suffix < len(new) - prefix
        and ctx.same_subtree(old[len(old) - 1 - suffix], new[len(new) - 1 - suffix])
    ):
        suffix += 1
        pairs.append((len(old) - suffix, len(new) - suffix, True))

    mid_old = range(prefix, len(old) - suffix)
    mid_new = range(prefix, len(new) - suffix)
    if len(mid_old) * len(mid_new) <= _LCS_CELL_LIMIT:
        anchors = _lcs_pairs(old, new, mid_old, mid_new, ctx)
    else:
        anchors = []

    # Walk the gaps between consecutive anchors, pairing leftovers
    # positionally.
    gap_old_start, gap_new_start = prefix, prefix
    for anchor_old, anchor_new in anchors + [(len(old) - suffix, len(new) - suffix)]:
        run_old = range(gap_old_start, anchor_old)
        run_new = range(gap_new_start, anchor_new)
        for k in range(min(len(run_old), len(run_new))):
            pairs.append((run_old[k], run_new[k], False))
        if anchor_old < len(old) - suffix:
            pairs.append((anchor_old, anchor_new, True))
        gap_old_start, gap_new_start = anchor_old + 1, anchor_new + 1
    return pairs


def _lcs_pairs(old: List[Node], new: List[Node], mid_old: range, mid_new: range, ctx: _DiffContext):
    """Longest common subsequence of the middle windows, as index pairs.

    The equality table compares signatures
    (:meth:`_DiffContext.signature`), computed once per node, not once
    per cell.
    """
    rows = len(mid_old)
    cols = len(mid_new)
    if not rows or not cols:
        return []
    signature = ctx.signature
    old_sigs = [signature(old[i]) for i in mid_old]
    new_sigs = [signature(new[i]) for i in mid_new]
    equal = [[a == b for b in new_sigs] for a in old_sigs]
    lengths = [[0] * (cols + 1) for _ in range(rows + 1)]
    for r in range(rows - 1, -1, -1):
        row, below, row_equal = lengths[r], lengths[r + 1], equal[r]
        for c in range(cols - 1, -1, -1):
            if row_equal[c]:
                row[c] = below[c + 1] + 1
            else:
                down, right = below[c], row[c + 1]
                row[c] = down if down >= right else right
    anchors = []
    r = c = 0
    while r < rows and c < cols:
        if equal[r][c]:
            anchors.append((mid_old[r], mid_new[c]))
            r += 1
            c += 1
        elif lengths[r + 1][c] >= lengths[r][c + 1]:
            r += 1
        else:
            c += 1
    return anchors


def _diff_matched(
    old_node: Node, new_node: Node, sec: str, path: List[int], ops: List[Dict], ctx: _DiffContext
):
    if isinstance(old_node, Text):
        if old_node.data != new_node.data:
            ops.append({"op": "text", "sec": sec, "path": path, "data": new_node.data})
    elif isinstance(old_node, Comment):
        if old_node.data != new_node.data:
            ops.append({"op": "comment", "sec": sec, "path": path, "data": new_node.data})
    else:
        if old_node.attributes != new_node.attributes:
            ops.append(
                {"op": "attrs", "sec": sec, "path": path, "attrs": _attr_list(new_node)}
            )
        _diff_children(old_node, new_node, sec, path, ops, ctx)


# -- apply -------------------------------------------------------------------------------


def apply_delta(
    root: Element,
    ops: List[Dict],
    metrics=None,
    node: Optional[str] = None,
    events=None,
    t: Optional[float] = None,
) -> int:
    """Apply ``ops`` to a canonical tree in place; returns the op count.

    Raises :class:`DeltaError` on any structural mismatch — a missing
    section, a dangling path, a type-confused op, or a malformed op
    record.  Callers treat that as "this participant needs a resync",
    not as a fatal condition.

    With ``metrics``, apply wall-time and op counts are published as
    ``delta_apply_seconds`` / ``delta_apply_ops``, labeled by ``node``.
    With ``events`` (an :class:`~repro.obs.events.EventBus`) and ``t``
    (the sim-time stamp), a failing op is recorded as a
    ``delta.apply_failed`` event before the :class:`DeltaError` leaves
    the engine — the black box then names the exact op that broke.
    """
    if not isinstance(ops, list):
        raise _apply_failure(events, t, node, "ops must be a list", None)
    started = _time.perf_counter() if metrics is not None else 0.0
    applied = 0
    for op in ops:
        if not isinstance(op, dict):
            raise _apply_failure(
                events, t, node, "op must be an object, got %r" % (op,), op
            )
        try:
            _apply_one(root, op)
        except (KeyError, TypeError, AttributeError) as exc:
            raise _apply_failure(
                events, t, node, "malformed op %r: %s" % (op, exc), op
            )
        except DeltaError as exc:
            raise _apply_failure(events, t, node, str(exc), op)
        applied += 1
    if metrics is not None:
        labels = {"node": node} if node else {}
        metrics.histogram("delta_apply_seconds", **labels).observe(
            _time.perf_counter() - started
        )
        metrics.counter("delta_apply_ops", **labels).inc(applied)
    return applied


def _apply_failure(events, t, node, message: str, op) -> DeltaError:
    """Build the DeltaError for a failed apply, emitting the structured
    ``delta.apply_failed`` event first when a bus is attached."""
    if events is not None:
        from ..obs.events import DELTA_APPLY_FAILED

        data: Dict[str, object] = {"error": message}
        if isinstance(op, dict):
            data["op"] = op.get("op")
            data["sec"] = op.get("sec")
            data["path"] = op.get("path")
        events.emit(
            DELTA_APPLY_FAILED, t if t is not None else 0.0, node=node or "", **data
        )
    return DeltaError(message)


def _apply_one(root: Element, op: Dict) -> None:
    kind = op["op"]
    sec = op["sec"]
    if sec != "head" and sec not in SECTION_NAMES:
        raise DeltaError("unknown section %r" % (sec,))

    if kind == "drop":
        if sec == "head":
            raise DeltaError("cannot drop the head section")
        section = _section(root, sec)
        if section is None:
            raise DeltaError("drop of missing section %r" % (sec,))
        root.remove_child(section)
        return
    if kind == "top":
        if sec == "head":
            raise DeltaError("head is not a top element")
        section = _section(root, sec)
        if section is None:
            section = Element(sec)
            root.append_child(section)
        for name, _value in list(section.attributes):
            section.remove_attribute(name)
        for name, value in op["attrs"]:
            section.set_attribute(name, value)
        return

    section = _section(root, sec)
    if section is None:
        raise DeltaError("section %r not present" % (sec,))
    path = op["path"]
    if not isinstance(path, list) or not all(isinstance(i, int) and i >= 0 for i in path):
        raise DeltaError("bad path %r" % (path,))

    if kind == "insert":
        parent = _walk(section, path[:-1])
        index = path[-1] if path else _bad_path(path)
        if not isinstance(parent, _ParentNode) or index > len(parent.child_nodes):
            raise DeltaError("insert index %r out of range" % (path,))
        reference = parent.child_nodes[index] if index < len(parent.child_nodes) else None
        parent.insert_before(_build_node(op["node"], _context_tag(parent)), reference)
        return

    node = _walk(section, path)
    if kind == "remove":
        if node is section:
            raise DeltaError("cannot remove a section via a node op")
        node.parent.remove_child(node)
    elif kind == "replace":
        if node is section:
            raise DeltaError("cannot replace a section via a node op")
        parent = node.parent
        parent.replace_child(_build_node(op["node"], _context_tag(parent)), node)
    elif kind == "text":
        if not isinstance(node, Text):
            raise DeltaError("text op on non-Text node at %r" % (path,))
        node.data = op["data"]
    elif kind == "comment":
        if not isinstance(node, Comment):
            raise DeltaError("comment op on non-Comment node at %r" % (path,))
        node.data = op["data"]
    elif kind == "attrs":
        if not isinstance(node, Element):
            raise DeltaError("attrs op on non-Element node at %r" % (path,))
        for name, _value in list(node.attributes):
            node.remove_attribute(name)
        for name, value in op["attrs"]:
            node.set_attribute(name, value)
    else:
        raise DeltaError("unknown op kind %r" % (kind,))


def _bad_path(path) -> int:
    raise DeltaError("empty insert path %r" % (path,))


def _walk(section: Element, path: List[int]) -> Node:
    node: Node = section
    for index in path:
        if not isinstance(node, _ParentNode) or index >= len(node.child_nodes):
            raise DeltaError("path %r does not resolve" % (path,))
        node = node.child_nodes[index]
    return node


def _context_tag(parent: _ParentNode) -> str:
    return parent.tag if isinstance(parent, Element) else "body"


def _build_node(payload: Dict, context_tag: str) -> Node:
    if not isinstance(payload, dict):
        raise DeltaError("bad node payload %r" % (payload,))
    kind = payload.get("t")
    if kind == "text":
        return Text(payload["data"])
    if kind == "comment":
        return Comment(payload["data"])
    if kind == "element":
        nodes = parse_fragment(payload["html"], context_tag)
        if len(nodes) != 1 or not isinstance(nodes[0], Element):
            raise DeltaError("element payload did not parse to one element")
        return nodes[0]
    raise DeltaError("unknown node payload kind %r" % (kind,))
