"""Ablation: incremental vs from-scratch content generation.

The paper's Fig. 3 pipeline re-clones, re-rewrites and re-serializes
the whole document for every change — O(page) per edit.  The
incremental generator keys on DOM version stamps to rebuild only dirty
subtrees, reusing the previous rewritten clone, its serialized
segments, and its payload-encoded segments.

Workload: a large (~1200-element) catalog page; the host edits one text
node per generation.  Three claims are asserted:

* byte-identity — every incremental envelope equals a from-scratch
  generation of the same state, byte for byte;
* speed — warm incremental generation is >= 5x faster than the full
  pipeline for a single-element edit;
* diff locality — version-guided ``diff_trees`` between consecutive
  canonical snapshots visits O(changed region), not O(page), and skips
  the untouched subtrees by identity/version.
"""

import json
import time

from repro.core import ContentGenerator, diff_trees
from repro.html import parse_document
from repro.net import parse_url

from conftest import write_result

ROWS = 400
EDITS = 30
BASE = parse_url("http://catalog.example.com/inventory")

PAGE = (
    "<html><head><title>Inventory</title>"
    "<link rel='stylesheet' href='/css/site.css'>"
    "<script src='/js/app.js'></script></head>"
    "<body><h1>Catalog</h1>"
    + "".join(
        "<div class='row' id='row-%d'><span class='sku'>SKU-%d</span>"
        "<span class='qty'>%d</span><a href='/item/%d'>detail</a></div>" % (i, i, i, i)
        for i in range(ROWS)
    )
    + "</body></html>"
)


def best_of(callable_, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def run_ablation():
    document = parse_document(PAGE)
    root = document.document_element
    qty_texts = [
        el.child_nodes[0]
        for el in root.descendant_elements()
        if el.get_attribute("class") == "qty"
    ]
    assert len(qty_texts) == ROWS

    incremental = ContentGenerator()
    scratch = ContentGenerator()

    previous = incremental.generate(document, BASE, mode_key="bench", build_canonical=True)
    assert previous.mode == "full"

    diff_stats = {"visited": 0, "skipped": 0, "serialized": 0}
    dirty_total = 0
    reuse_ratios = []
    for step in range(1, EDITS + 1):
        qty_texts[(step * 37) % ROWS].data = "qty %d" % step
        result = incremental.generate(document, BASE, mode_key="bench", build_canonical=True)
        assert result.mode == "incremental"
        # Byte-identity: the reused-clone payloads equal a from-scratch run.
        fresh = scratch.generate(document, BASE)
        assert (result.head_segments, result.top_segments) == (
            fresh.head_segments,
            fresh.top_segments,
        )
        diff_trees(previous.canonical_root, result.canonical_root, stats=diff_stats)
        dirty_total += result.dirty_subtrees
        reuse_ratios.append(result.reuse_ratio)
        previous = result

    # Warm timing: single text edit per generation, best of several runs.
    tick = [1000]

    def incremental_once():
        tick[0] += 1
        qty_texts[tick[0] % ROWS].data = "t %d" % tick[0]
        incremental.generate(document, BASE, mode_key="bench", build_canonical=True)

    def full_once():
        scratch.generate(document, BASE)

    incremental_seconds = best_of(incremental_once, repeats=15)
    full_seconds = best_of(full_once, repeats=15)

    node_count = 1 + sum(1 for _ in root.descendant_elements())
    return {
        "rows": ROWS,
        "edits": EDITS,
        "element_count": node_count,
        "incremental_seconds": incremental_seconds,
        "full_seconds": full_seconds,
        "speedup": full_seconds / incremental_seconds,
        "mean_dirty_subtrees": dirty_total / EDITS,
        "mean_reuse_ratio": sum(reuse_ratios) / len(reuse_ratios),
        "diff_visited": diff_stats["visited"],
        "diff_skipped": diff_stats["skipped"],
        "diff_serialized": diff_stats["serialized"],
        "generation_throughput_ops": 1.0 / incremental_seconds,
    }


def test_incremental_generation_single_edit(benchmark, results_dir):
    outcome = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    speedup = outcome["speedup"]
    text = "\n".join(
        [
            "Ablation: incremental vs from-scratch generation"
            " (%d-row page, %d single-text edits)" % (ROWS, EDITS),
            "%-28s %14s" % ("variant", "seconds/edit"),
            "%-28s %14.5f" % ("full pipeline", outcome["full_seconds"]),
            "%-28s %14.5f" % ("incremental", outcome["incremental_seconds"]),
            "speedup: %.1fx; mean dirty subtrees %.1f of %d elements;"
            " mean reuse ratio %.3f"
            % (
                speedup,
                outcome["mean_dirty_subtrees"],
                outcome["element_count"],
                outcome["mean_reuse_ratio"],
            ),
            "diff over %d edits: visited %d, skipped %d, serialized %d"
            % (
                outcome["edits"],
                outcome["diff_visited"],
                outcome["diff_skipped"],
                outcome["diff_serialized"],
            ),
            "incremental generation throughput: (%.1f operations/s)"
            % outcome["generation_throughput_ops"],
        ]
    )
    write_result(results_dir, "ablation_incremental.txt", text)
    write_result(results_dir, "ablation_incremental.json", json.dumps(outcome, indent=2))

    # Acceptance: >= 5x faster for single-element edits.
    assert speedup >= 5.0
    # The incremental path really did reuse almost everything.
    assert outcome["mean_dirty_subtrees"] < outcome["element_count"] / 50
    assert outcome["mean_reuse_ratio"] > 0.9
    # The version-guided diff visited O(changed region): per edit a
    # handful of parent pairs, nowhere near the page's element count.
    assert outcome["diff_visited"] < outcome["edits"] * 10
    assert outcome["diff_skipped"] > outcome["edits"] * ROWS * 0.5
    assert outcome["diff_serialized"] < outcome["edits"] * 10
