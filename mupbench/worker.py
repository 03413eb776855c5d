"""One benchmark worker: a fresh, single-threaded process driving mup.

    python3 mupbench/worker.py MODE WORKLOAD SEED [SECONDS]

MODE is one of

  setup    import mup, parse the program and build the Engine; report the
           times.  The parent starts several of these to take a median.
  measure  one warm-up batch, then the untraced closed loop: one query at
           a time until SECONDS have passed and at least MIN_QUERIES
           queries have run.
  trace    the count run through ``Engine(trace=...)``, one warm-up batch,
           then one untraced and one traced run of each query, with the
           layers of mup wrapped by ``Layers``, until SECONDS have passed
           and at least MIN_TRACE_BATCHES batches have run.
  count    the count run alone, for writing counts.json.

The worker prints one JSON object as its last line of output.  It runs from
the root of a mup checkout and imports mup from ``src/`` there.

Times go out as measured, each with the speed factor of the moment it was
taken (see ``Speed``); the parent applies the factors.
"""

import contextlib
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

# Queries per timed run, at least.  query_s_tail, the highest percentile
# with ten queries beyond it, needs eleven; four more keep it off the very
# fastest queries, where the errors of the speed correction gather.
MIN_QUERIES = 15
MIN_TRACE_BATCHES = 3
MAX_TRACEBACKS = 3

# Metric names allow only letters, digits, '_', '.' and '-'.
BUILTIN_NAMES = {"<": "lt", ">": "gt", "=<": "le", ">=": "ge", "=": "eq"}

# The speed of a shared machine changes under its neighbours' load: on the
# 2-core virtual machine this benchmark was built on, the same Python code
# ran up to 1.7 times slower for tens of seconds at a time.  A fixed kernel,
# timed between queries, follows that speed, and every time is reported as
# it would read at the reference speed, where the kernel takes REFERENCE_S.
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _kernel(n=3000):
    """Build a linked list of objects and walk it with a stack and a dict:
    the kind of work an interpreter of terms does, without mup's code."""
    cells = None
    for i in range(n):
        cells = _Cell(i, cells)
    seen = {}
    stack = [cells]
    total = 0
    while stack:
        cell = stack.pop()
        if type(cell) is _Cell:
            seen[cell.head & 63] = (cell.head, total)
            total += cell.head
            stack.append(cell.tail)
    return total


def calibrate():
    """Seconds the kernel takes now: the median of three runs, with the
    cyclic collector off so that mup's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            t0 = clock()
            _kernel()
            runs.append(clock() - t0)
        return statistics.median(runs)
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibrations taken between queries.

    A query run after calibration ``i`` and before calibration ``i + 1``
    is brought to the reference speed by ``factor(i)``.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.last = clock()

    def mark(self):
        """Calibrate if one is due; return the latest calibration's index."""
        if clock() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.last = clock()
        return len(self.samples) - 1

    def close(self):
        self.samples.append(calibrate())

    def factor(self, i):
        return 2 * REFERENCE_S / (self.samples[i] + self.samples[i + 1])

    def run_factor(self):
        return REFERENCE_S / statistics.median(self.samples)


def setup(workload):
    """Import mup, parse the program, build the Engine; time each step."""
    before = calibrate()
    t0 = clock()
    sys.path.insert(0, os.path.abspath("src"))
    import mup

    t1 = clock()
    program = mup.parse_program(workload.program)
    t2 = clock()
    engine = mup.Engine(program)
    t3 = clock()
    times = {
        "setup_s": t3 - t0,
        "parse_s": t2 - t1,
        "clauses": len(program),
        "speed": 2 * REFERENCE_S / (before + calibrate()),
    }
    return mup, program, engine, times


def run_query(engine, parsed):
    """Solve and render every answer; return (seconds, first_s, answers)."""
    t0 = clock()
    first = None
    answers = []
    for solution in engine.solve(parsed.goal, parsed.answer_vars):
        answers.append(solution.render())
        if first is None:
            first = clock() - t0
    return clock() - t0, first, answers


class Failures:
    """Failed queries, described and their tracebacks printed, and any
    other problem that makes the run's figures wrong."""

    def __init__(self):
        self.messages = []
        self.problems = []

    def check(self, query, answers):
        problem = query.check(answers)
        if problem is not None:
            self.messages.append("%s %s: wrong answer: %s"
                                 % (query.kind, query.text[:60], problem))
        return problem is None

    def error(self, query, exc):
        if len(self.messages) < MAX_TRACEBACKS:
            traceback.print_exc(file=sys.stderr)
        self.messages.append("%s %s: %s: %s" % (
            query.kind, query.text[:60], type(exc).__name__, str(exc)[:200]))


class Layers:
    """Per-layer call counts and self times, taken by wrapping mup's names.

    ``installed()`` replaces each module attribute in TARGETS and each
    entry of ``mup.builtins.BUILTINS`` with a timing wrapper, and puts the
    originals back on exit.  A span's self time is its duration minus the
    duration of the spans it contains; the durations of outermost spans
    add up in ``top_s``, so the engine's own time is the query time minus
    ``top_s``.
    """

    TARGETS = (
        ("mup.engine", "fresh_rename", "syntax.rename"),
        ("mup.engine", "_kunify", "kernel.unify"),
        ("mup.kernel", "unify", "kernel.unify"),
        ("mup.kernel", "undo_to", "kernel.undo"),
        ("mup.kernel", "resolve", "kernel.resolve"),
        ("mup.terms", "Solution.render", "terms.render"),
    )

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.nested = [0.0]  # inclusive child time of each open span
        self.restored = True

    @property
    def top_s(self):
        return self.nested[0]

    def wrap(self, layer, fn):
        calls = self.calls
        self_s = self.self_s
        nested = self.nested

        def span(*args):
            nested.append(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - t0
                child = nested.pop()
                nested[-1] += elapsed
                self_s[layer] += elapsed - child
                calls[layer] += 1

        return span

    @contextlib.contextmanager
    def installed(self):
        from mup.builtins import BUILTINS

        slots = []
        for module, path, layer in self.TARGETS:
            owner = sys.modules[module]
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            slots.append((owner, name, getattr(owner, name), layer))
        entries = dict(BUILTINS)
        for owner, name, original, layer in slots:
            setattr(owner, name, self.wrap(layer, original))
        for key, entry in entries.items():
            layer = "builtins." + BUILTIN_NAMES.get(entry.name, entry.name)
            BUILTINS[key] = dataclasses.replace(
                entry, fn=self.wrap(layer, entry.fn))
        try:
            yield self
        finally:
            for owner, name, original, _ in slots:
                setattr(owner, name, original)
            BUILTINS.update(entries)
            self.restored = self.restored and all(
                getattr(owner, name) is original
                for owner, name, original, _ in slots
            ) and all(BUILTINS[key] is entry for key, entry in entries.items())


class EventCounts:
    """Trace hook counting the events the exact counts are made of."""

    def __init__(self):
        self.counts = Counter()

    def __call__(self, event):
        kind = event.kind
        if kind == "backchain_enter":
            self.counts["user_calls"] += 1
        elif kind in ("unify_ok", "unify_fail"):
            # Head unifications print as "head ~ goal"; '=' goals do not.
            if " ~ " in event.payload:
                self.counts["head_" + kind] += 1
        elif kind == "choice_taken":
            self.counts["commits_" + event.payload.split(" ", 1)[0]] += 1


def count_run(mup, program, batch, failures):
    """Exact counts of one batch, per query kind and for the whole batch."""
    hook = EventCounts()
    engine = mup.Engine(program, trace=hook)
    per_kind = {}
    total = Counter()
    for query in batch:
        hook.counts.clear()
        layers = Layers()
        try:
            parsed = mup.parse_query(query.text)
            with layers.installed():
                _, _, answers = run_query(engine, parsed)
        except Exception as exc:  # counted as a failed query and reported
            failures.error(query, exc)
            continue
        failures.check(query, answers)
        counts = Counter(hook.counts)
        counts["builtin_calls"] = sum(
            n for layer, n in layers.calls.items()
            if layer.startswith("builtins."))
        counts["inferences"] = counts["user_calls"] + counts["builtin_calls"]
        if per_kind.setdefault(query.kind, counts) != counts:
            failures.problems.append(
                "%s queries differ in their counts: %s and %s"
                % (query.kind, dict(per_kind[query.kind]), dict(counts)))
        total.update(counts)
    return per_kind, total


def warm_up(engine, batch, failures):
    """Run one batch through run_query, which also reports the outcome."""
    for query in batch:
        try:
            answers = engine.run_query(query.text)
            rendered = [s.render() for s in answers.solutions]
        except Exception as exc:  # counted as a failed query and reported
            failures.error(query, exc)
            continue
        if answers.outcome != "exhausted":
            failures.messages.append("%s: outcome %s (%s)" % (
                query.kind, answers.outcome, answers.error))
        else:
            failures.check(query, rendered)


def measure(mup, engine, workload, seconds, failures):
    """Closed loop, untraced.  One sample per successful query: kind,
    seconds, seconds to the first answer, answers, speed factor."""
    samples = []
    attempted = 0
    speed = Speed()
    deadline = clock() + seconds
    for batch in workload.batches:
        for query in batch:
            parsed = mup.parse_query(query.text)
            attempted += 1
            mark = speed.mark()
            try:
                elapsed, first, answers = run_query(engine, parsed)
            except Exception as exc:  # counted as a failed query and reported
                failures.error(query, exc)
                continue
            if failures.check(query, answers):
                samples.append([query.kind, elapsed, first, len(answers), mark])
        if clock() >= deadline and attempted >= MIN_QUERIES:
            break
    speed.close()
    for sample in samples:
        sample[4] = speed.factor(sample[4])
    return samples, attempted


def trace(mup, engine, workload, seconds, failures):
    """Interleaved untraced and traced runs of the same queries."""
    layers = Layers()
    out = {"untraced_s": 0.0, "traced_s": 0.0, "queries": 0, "batches": 0}
    attempted = 0
    speed = Speed()
    deadline = clock() + seconds
    for batch in workload.batches:
        speed.mark()
        # Alternate which run goes first, so neither always sees the heap
        # the other left behind.
        traced_first = out["batches"] % 2 == 1
        for query in batch:
            parsed = mup.parse_query(query.text)
            for traced in (traced_first, not traced_first):
                attempted += 1
                try:
                    if traced:
                        with layers.installed():
                            elapsed, _, answers = run_query(engine, parsed)
                    else:
                        elapsed, _, answers = run_query(engine, parsed)
                except Exception as exc:  # counted as failed and reported
                    failures.error(query, exc)
                    continue
                failures.check(query, answers)
                out["traced_s" if traced else "untraced_s"] += elapsed
            out["queries"] += 1
        out["batches"] += 1
        if clock() >= deadline and out["batches"] >= MIN_TRACE_BATCHES:
            break
    speed.close()
    out.update(
        speed=speed.run_factor(),
        top_s=layers.top_s,
        layers={name: {"calls": layers.calls[name], "self_s": layers.self_s[name]}
                for name in layers.calls},
        restored=layers.restored,
    )
    return out, attempted


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    workload = WORKLOADS[name](seed)
    mup, program, engine, times = setup(workload)
    result = {
        "python": sys.version.split()[0],
        "kernel_impl": mup.kernel_impl,
        "sizes": workload.sizes,
        "setup": times,
    }
    failures = Failures()
    attempted = 0
    if mode in ("trace", "count"):
        batch = next(workload.batches)
        per_kind, total = count_run(mup, program, batch, failures)
        attempted += len(batch)
        result["per_kind"] = per_kind
        result["batch_counts"] = total
        result["batch_size"] = len(batch)
    if mode in ("measure", "trace"):
        batch = next(workload.batches)
        warm_up(engine, batch, failures)
        attempted += len(batch)
    if mode == "measure":
        samples, n = measure(mup, engine, workload, seconds, failures)
        attempted += n
        result["samples"] = samples
    elif mode == "trace":
        traced, n = trace(mup, engine, workload, seconds, failures)
        attempted += n
        result["trace"] = traced
    result["attempted"] = attempted
    result["failures"] = failures.messages
    result["problems"] = failures.problems
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
