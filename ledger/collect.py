"""Run the ledger over many seeds and record the baseline.

    python3 ledger/collect.py --seeds 1-10 --trace-seeds 1-3 --out ledger/baseline.json

For every workload in BENCHMARK.json: one untraced run per seed (the
end-to-end metrics), one traced run per trace seed (the per-layer
metrics), and a second untraced run of the first seed, which must
reproduce every sim-time metric and the content bytes exactly.  Prints
each metric's median and quartile spread (IQR / median) beside its
bound, and writes medians, quartiles and the layer map to ``--out``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import SHOULD_MOVE  # noqa: E402

#: Metrics that depend on the seed only, never on the wall clock.
SIM_METRICS = ("staleness_p50_ms", "staleness_p95_ms", "content_bytes_per_op")


def seed_range(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    started = time.time()
    process = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if process.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, process.stderr[-3000:]))
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split("fingerprint=")[1] for line in lines if "fingerprint=" in line), None
    )
    result["wall_s"] = time.time() - started
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d incorrect:\n%s" % (workload, seed, process.stdout))
    return result


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values),
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1-3")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    record = {
        "machine": "%d CPUs, %s, Python %s"
        % (os.cpu_count(), platform.machine(), platform.python_version()),
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "workloads": {w["name"]: {"why": w["why"]} for w in spec["workloads"]},
        "layers": SHOULD_MOVE,
    }
    steady = True
    for workload in workloads:
        untraced = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], 0)
            untraced.append(result)
            print("%s seed %d: %.0fs %s" % (
                workload, seed, result["wall_s"],
                {k: round(v["value"], 4) for k, v in result["metrics"].items()},
            ), flush=True)
        again = run_once(workload, seed_range(args.seeds)[0], spec["run_seconds"], 0)
        first = untraced[0]
        repeatable = again["fingerprint"] == first["fingerprint"] and all(
            again["metrics"][name]["value"] == first["metrics"][name]["value"]
            for name in SIM_METRICS
        )
        print("%s: second run of seed %d reproduces sim metrics exactly: %s"
              % (workload, seed_range(args.seeds)[0], repeatable), flush=True)
        steady = steady and repeatable
        traced = [run_once(workload, seed, spec["run_seconds"], 1)
                  for seed in seed_range(args.trace_seeds)]
        end_to_end = summarize(untraced)
        for name, row in end_to_end.items():
            steady = steady and row["spread"] <= bounds[name]
            print("  %-22s median %14.4f %-5s spread %.4f bound %.2f %s" % (
                name, row["median"], row["unit"], row["spread"], bounds[name],
                "(above the bound)" if row["spread"] > bounds[name]
                else "" if row["spread"] <= bounds[name] / 3
                else "(above a third of the bound)",
            ))
        record["workloads"][workload].update({
            "seeds": seed_range(args.seeds),
            "trace_seeds": seed_range(args.trace_seeds),
            "repeatable": repeatable,
            "end_to_end": end_to_end,
            "per_layer": summarize(traced),
        })
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
