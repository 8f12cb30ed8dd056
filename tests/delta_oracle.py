"""The reference diff oracle for ``repro.core.delta.diff_trees``.

A frozen copy of the diff before its comparison keys came from a
snapshot-key :class:`~repro.html.serializer.SegmentCache` and before its
LCS table compared per-node signatures: every key is a fresh
``to_html()`` memoized for one diff, and every LCS cell calls
``same_subtree``.  The rewritten diff must emit the same ops, in the
same order, for every pair of trees.  Apart from this docstring, only
the imports differ from the original.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

from repro.core.delta import SECTION_NAMES, DeltaError
from repro.html import Comment, Element, Text
from repro.html.dom import Node, _ParentNode

__all__ = ["diff_trees"]


def _section(root: Element, name: str) -> Optional[Element]:
    for child in root.children:
        if child.tag == name:
            return child
    return None


def diff_trees(
    old_root: Element,
    new_root: Element,
    metrics=None,
    node: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
) -> List[Dict]:
    """Operations turning ``old_root`` into ``new_root`` (canonical trees).

    Matched subtrees that are the *same object* (incremental snapshots
    share unchanged nodes) or carry equal DOM version stamps are skipped
    without descending or serializing — version draws are globally
    unique (:mod:`repro.html.dom`), so equality is a sound "identical
    subtree" certificate.  Serialized comparison keys are computed
    lazily and only for children that survive those short-circuits,
    making the diff O(changed region), not O(page).

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
    ctx = _DiffContext(stats)
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
    """Per-diff scratch: lazy serialization keys + skip accounting."""

    __slots__ = ("_keys", "counts")

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self._keys: Dict[int, str] = {}
        self.counts = counts

    def key(self, node: Node) -> str:
        """``node.to_html()``, computed at most once per node."""
        node_id = id(node)
        text = self._keys.get(node_id)
        if text is None:
            text = node.to_html()
            self._keys[node_id] = text
            if self.counts is not None:
                self.counts["serialized"] += 1
        return text

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


def _node_payload(node: Node) -> Dict:
    if isinstance(node, Text):
        return {"t": "text", "data": node.data}
    if isinstance(node, Comment):
        return {"t": "comment", "data": node.data}
    if isinstance(node, Element):
        return {"t": "element", "html": node.to_html()}
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
            {"op": "insert", "sec": sec, "path": path + [ni], "node": _node_payload(new[ni])}
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
                    "node": _node_payload(new[ni]),
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
    """Longest common subsequence of the middle windows, as index pairs."""
    rows = len(mid_old)
    cols = len(mid_new)
    if not rows or not cols:
        return []
    equal = [
        [ctx.same_subtree(old[mid_old[r]], new[mid_new[c]]) for c in range(cols)]
        for r in range(rows)
    ]
    lengths = [[0] * (cols + 1) for _ in range(rows + 1)]
    for r in range(rows - 1, -1, -1):
        for c in range(cols - 1, -1, -1):
            if equal[r][c]:
                lengths[r][c] = lengths[r + 1][c + 1] + 1
            else:
                lengths[r][c] = max(lengths[r + 1][c], lengths[r][c + 1])
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
