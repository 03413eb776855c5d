#!/usr/bin/env python3
"""Run one workload of the mup benchmark and print its metrics.

    python3 mupbench/run.py --workload nrev --seed 1 --seconds 20 --trace 0
    python3 mupbench/run.py --write-counts

Run it from the root of a mup checkout.  Every measurement happens in a
fresh worker process (worker.py), one at a time: SETUP_RUNS workers that
only set up, then one that runs the workload.  With ``--trace 0`` that
worker runs the untimed warm-up and the timed closed loop, and the last
line of output holds the end-to-end metrics.  With ``--trace 1`` it takes
the exact counts through the engine's trace hook and then times the layers
of mup, and the last line holds the per-layer metrics.  Lines before the
last one give the stamp and a readable report.

``--write-counts`` takes the exact counts of every workload twice, with
two seeds, checks that they agree and writes counts.json, the inference
counts that ``lips`` is computed from.

Times are reported at the reference speed of worker.py's calibration
kernel, so that the load of neighbouring machines does not enter them; the
report also gives the median query time as measured.

The exit code is 0 only when every answer was right and every self-check
held.  DESIGN.md says why each workload and metric was chosen.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
COUNTS = os.path.join(HERE, "counts.json")
WORKLOADS = ("nrev", "countdown", "queens", "fact_table")
SETUP_RUNS = 9
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail is the highest percentile with 10 samples beyond

# Per-layer times reported in seconds per query.  Builtins and resolve are
# reported only as shares: some workloads never call them, and a time that
# reads zero on every run says nothing.
TIMED_LAYERS = ("syntax.rename", "kernel.unify", "kernel.undo", "terms.render")
COUNTED_LAYERS = TIMED_LAYERS + ("kernel.resolve",)
BUILTINS = ("lt", "gt", "le", "is")


class BenchError(Exception):
    pass


def worker(args, deadline):
    """Run worker.py with ``args``; return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + [str(a) for a in args],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran past the time limit" % args) from None
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def load_counts(name):
    with open(COUNTS) as f:
        return json.load(f)[name]


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; needs at least TAIL_BEYOND + 1 samples."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError("%d samples are too few for a tail" % len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_median(setups, key):
    return statistics.median(s[key] * s["speed"] for s in setups)


def end_to_end(setups, result, counts, report):
    samples = result["samples"]
    times = [s[1] * s[4] for s in samples]
    total = sum(times)
    inferences = sum(counts[s[0]]["inferences"] for s in samples)
    tail_s, pct = tail(times)
    report.append("query_s_tail is p%.1f of %d queries" % (pct, len(times)))
    report.append("query_s_p50 as measured %.6g s, speed factor %.4g to %.4g"
                  % (statistics.median(s[1] for s in samples),
                     min(s[4] for s in samples), max(s[4] for s in samples)))
    return {
        "setup_s": (setup_median(setups, "setup_s"), "s"),
        "query_s_p50": (statistics.median(times), "s"),
        "query_s_tail": (tail_s, "s"),
        "lips": (inferences / total, "1/s"),
        "first_answer_s": (statistics.median(s[2] * s[4] for s in samples),
                           "s"),
        "answers_per_s": (sum(s[3] for s in samples) / total, "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(setups, result, counts, problems):
    parse_s = setup_median(setups, "parse_s")
    metrics = {
        "syntax.parse_s": (parse_s, "s"),
        "syntax.parse_clauses_per_s": (setups[0]["clauses"] / parse_s, "1/s"),
    }
    per_kind = result["per_kind"]
    for kind, stored in counts.items():
        live = {k: per_kind.get(kind, {}).get(k, 0) for k in stored}
        if live != stored:
            problems.append("counts of %s changed: counts.json has %s, this "
                            "run %s" % (kind, stored, live))

    batch = result["batch_counts"]
    size = result["batch_size"]
    ok = batch.get("head_unify_ok", 0)
    tried = ok + batch.get("head_unify_fail", 0)
    for name in ("inferences", "head_unify_ok", "head_unify_fail",
                 "commits_left", "commits_right"):
        metrics["engine." + name] = (batch.get(name, 0) / size, "count")
    metrics["engine.head_unify_ok_ratio"] = (ok / tried, "ratio")

    traced = result["trace"]
    n = traced["queries"]
    per_query_s = traced["speed"] / n  # per query, at the reference speed
    traced_s = traced["traced_s"]
    layers = traced["layers"]

    def layer(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    for name in COUNTED_LAYERS:
        metrics[name + "_calls"] = (layer(name)["calls"] / n, "count")
        metrics[name + "_share"] = (layer(name)["self_s"] / traced_s, "ratio")
    for name in TIMED_LAYERS:
        metrics[name + "_s"] = (layer(name)["self_s"] * per_query_s, "s")
    builtin_layers = [k for k in layers if k.startswith("builtins.")]
    metrics["builtins.calls"] = (
        sum(layers[k]["calls"] for k in builtin_layers) / n, "count")
    metrics["builtins.share"] = (
        sum(layers[k]["self_s"] for k in builtin_layers) / traced_s, "ratio")
    for b in BUILTINS:
        metrics["builtins.%s.calls" % b] = (
            layer("builtins." + b)["calls"] / n, "count")
        metrics["builtins.%s.share" % b] = (
            layer("builtins." + b)["self_s"] / traced_s, "ratio")

    self_s = traced_s - traced["top_s"]
    metrics["engine.self_s"] = (self_s * per_query_s, "s")
    metrics["engine.self_share"] = (self_s / traced_s, "ratio")
    metrics["trace.query_s"] = (traced_s * per_query_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / traced["untraced_s"], "ratio")

    # Self-check: the self times of all layers add up to the time of the
    # outermost spans, so layers plus engine.self_s make the query time.
    spans = sum(v["self_s"] for v in layers.values())
    if abs(spans - traced["top_s"]) > 1e-6 * traced_s or self_s < 0:
        problems.append("layer self times %.9f s do not add up to the span "
                        "time %.9f s" % (spans, traced["top_s"]))
    if not traced["restored"]:
        problems.append("a wrapped attribute of mup was not restored")
    return metrics


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    name, seed = args.workload, args.seed
    counts = load_counts(name)
    setups = [worker(["setup", name, seed], deadline)["setup"]
              for _ in range(SETUP_RUNS)]
    mode = "trace" if args.trace else "measure"
    result = worker([mode, name, seed, args.seconds], deadline)

    report = []
    problems = list(result["problems"])
    attempted = result["attempted"]
    failed = len(result["failures"])
    if failed:
        metrics = {}  # the run is refused; its figures would mislead
    elif args.trace:
        metrics = per_layer(setups, result, counts, problems)
    else:
        metrics = end_to_end(setups, result, counts, report)
    stamp = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": result["sizes"],
        "python": result["python"],
        "kernel_impl": result["kernel_impl"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    print("stamp " + json.dumps(stamp))
    for line in result["failures"] + problems:
        print("FAILED " + line)
    for key, (value, unit) in metrics.items():
        print("%-30s %16.6g %s" % (key, value, unit))
    print("failed_ratio %.6g (%d of %d queries)"
          % (failed / attempted, failed, attempted))
    for line in report:
        print(line)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def write_counts():
    deadline = time.monotonic() + 30 * 60
    out = {}
    for name in WORKLOADS:
        first, second = (worker(["count", name, seed], deadline)
                         for seed in (1, 2))
        for result in (first, second):
            if result["failures"] or result["problems"]:
                raise BenchError("%s: %s" % (
                    name, result["failures"] + result["problems"]))
        if first["per_kind"] != second["per_kind"]:
            raise BenchError("%s: counts differ between two runs: %s and %s"
                             % (name, first["per_kind"], second["per_kind"]))
        out[name] = {
            kind: {k: c.get(k, 0)
                   for k in ("inferences", "user_calls", "builtin_calls")}
            for kind, c in sorted(first["per_kind"].items())
        }
        print(name, json.dumps(out[name]))
    with open(COUNTS, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-counts", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "mup", "__init__.py")):
        print("run.py: no mup source at ./src/mup; run it from the root of "
              "a mup checkout", file=sys.stderr)
        return 2
    try:
        if args.write_counts:
            return write_counts()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        return run(args)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
