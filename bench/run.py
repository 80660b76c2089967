"""flowinv benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout; flowinv is imported from ./src.

    python3 bench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

One process and one thread send each operation only after the previous one
returned.  The seeded draws and their filtering (``plan``) run once, untimed.
Set-up (importing flowinv.cli and building the inputs from the plan with
flowinv's calls and file writes) is timed before every pass over the
inputs, so that its samples are spread over the run like the operations';
setup_s is their median, in wall seconds.  flowinv is thus imported afresh
between passes, and no module-level state carries from one pass to the next,
as in the one-process-per-file use of the command line.  The passes, each
in a new seeded order, run for about ``--seconds`` and at least MIN_PASSES
passes, each operation under the workload's budget, enforced with SIGALRM.

Between operations a fixed reference kernel is timed (bench/speed.py), and
each operation's wall time is converted into reference seconds (unit
``ref_s``) at the host's speed around it: on a shared host the same work
runs at speeds about 1.5x apart that change every few seconds, in wall time
and CPU time alike.  An input's latency is the median of its completed
passes in reference seconds, and ``ops_per_s`` is completed inputs per
reference second of their latencies; operations cut off by the budget count
only in ``ok_share``.  Wall-clock figures are printed on the comment lines.
Answers are checked against bench/oracle.py after the timed loop.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` the benchmark runs passes over the inputs until
``--seconds`` of op time, each input once with flowinv's module boundaries
wrapped (bench/tracing.py) and once without, and reports per-layer
self times, program counts and the tracing overhead; spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import types

from speed import Clock
from workloads import WORKLOADS

MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # counts are compared between passes


class Overrun(Exception):
    """An operation ran past the workload's per-op budget."""


def _alarm(signum, frame):
    raise Overrun()


def load_flowinv(src: str):
    """Import flowinv afresh from ``src``; drop any earlier import first."""
    for name in [m for m in sys.modules if m == "flowinv" or m.startswith("flowinv.")]:
        del sys.modules[name]
    import flowinv.cli  # the package imports every module

    pkg = sys.modules["flowinv"]
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"flowinv was imported from {pkg.__file__}, not {src}")
    modules = ("cli", "classify", "invariants", "flowsearch", "moves", "graph")
    return types.SimpleNamespace(**{m: getattr(pkg, m) for m in modules})


def call_with_budget(fn, budget: float):
    """Run fn(); return (status, result) with status ok, overrun or error."""
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return "ok", fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        return "overrun", None
    except Exception:  # a failing op is a result to report, not a crash
        return "error", traceback.format_exc(limit=3)


def run_op(fl, workload, item, tracer=None, op=0):
    """One operation under the budget: (status, latency in s, result)."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op)
    t0 = time.perf_counter()
    try:
        status, result = call_with_budget(lambda: workload.run(fl, item), workload.budget_s)
    finally:
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.end_op(result)
    return status, latency, result


def timed_loop(src, workload, plan, workdir, seconds: float, rng):
    """Closed loop of whole passes over the items, so every run has the same
    mix, for about ``seconds`` and at least MIN_PASSES passes.  Each pass
    starts with a timed set-up, and takes the items in a new order, so that
    the samples of similar inputs are spread over the run and a slow spell
    of the machine does not hit all of them at once.  Returns the records,
    the items, the set-up times, each op's wall interval, the clock and the
    elapsed time."""
    records, has_answer, setups, walls, clock = [], set(), [], [], Clock()
    passes, start = 0, time.perf_counter()
    while True:
        # Another pass when fewer than MIN_PASSES were made, or when it would
        # end nearer to ``seconds`` than stopping now.
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 > seconds:
            break
        passes += 1
        # Each set-up writes new files, in a directory of its own: rewriting
        # a file that exists can wait for its old contents to reach the
        # disk, which is no part of making inputs.
        pass_dir = os.path.join(workdir, f"pass{passes}")
        t0 = time.perf_counter()
        fl = load_flowinv(src)
        os.mkdir(pass_dir)
        items = workload.build(plan, fl, pass_dir)
        setups.append(time.perf_counter() - t0)
        for pos in rng.sample(range(len(items)), len(items)):
            clock.tick()
            t0 = time.perf_counter()
            status, latency, result = run_op(fl, workload, items[pos])
            walls.append((t0, t0 + latency))
            keep(workload, records, has_answer, pos, fl, status, latency, result)
        shutil.rmtree(pass_dir)
    clock.sample()
    return records, items, setups, walls, clock, time.perf_counter() - start


def keep(workload, records, has_answer, pos, fl, status, latency, result) -> None:
    """Append one op.  An input's first answer is kept whole, with the
    flowinv import that made it, for the oracle; later answers are kept as
    their summaries only, so that memory does not grow with passes."""
    if status == "ok" and pos not in has_answer:
        has_answer.add(pos)
    else:
        fl = None
        if status == "ok":
            result = workload.summary(result)
    records.append((pos, status, latency, result, fl))


def check_records(workload, items, records):
    """Oracle-check every answer; return (ok, answered, failures).

    The first answer for an input is checked against the oracle, with the
    flowinv import that made it; the later ones, kept as summaries, must
    equal its summary.
    """
    first = {}
    ok = answered = 0
    failures = []
    for pos, status, _latency, result, fl in records:
        if status == "overrun":
            continue
        if status == "error":
            failures.append(f"{items[pos].kind}: raised\n{result}")
            continue
        if pos not in first:
            try:
                err = workload.check(fl, items[pos], result)
                first[pos] = (workload.summary(result), err, workload.answered(result))
            except Exception:  # a malformed answer fails its check
                err = "answer could not be checked\n" + traceback.format_exc(limit=3)
                first[pos] = (None, err, False)
        elif result != first[pos][0]:
            failures.append(f"{items[pos].kind}: answer differs from an earlier run")
            continue
        _summary, err, was_answered = first[pos]
        if err is not None:
            failures.append(f"{items[pos].kind}: {err}")
            continue
        ok += 1
        answered += was_answered
    return ok, answered, failures


def plain_run(src, workload, plan, workdir, seconds, rng):
    records, items, setups, walls, clock, elapsed = timed_loop(
        src, workload, plan, workdir, seconds, rng
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, answered, failures = check_records(workload, items, records)
    # Per input that completed at least once: the median of its completed
    # passes, in reference seconds and in wall seconds.
    ref_runs = [[] for _ in items]
    wall_runs = [[] for _ in items]
    for (pos, status, latency, _result, _fl), wall in zip(records, walls):
        if status == "ok":
            ref_runs[pos].append(clock.ref_seconds(*wall))
            wall_runs[pos].append(latency)
    ref = [statistics.median(r) for r in ref_runs if r]
    wall = [statistics.median(r) for r in wall_runs if r]
    metrics = {
        "ops_per_s": (len(ref) / sum(ref), "1/ref_s"),
        "latency_p50_s": (statistics.median(ref), "ref_s"),
        "latency_p90_s": (statistics.quantiles(ref, n=10)[8], "ref_s"),
        "ok_share": (ok / len(records), "ratio"),
        "answered_share": (answered / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    kernel_q = statistics.quantiles(clock.costs, n=4)
    notes = {
        "passes": len(records) // len(items),
        "setups_s": "/".join(f"{t:.3f}" for t in setups),
        "samples": len(ref),
        "overruns": sum(1 for r in records if r[1] == "overrun"),
        "failed_share": round(1 - ok / len(records), 6),
        "elapsed_s": round(elapsed, 3),
        "wall_ops_per_s": round(len(wall) / sum(wall), 4),
        "wall_p50_s": round(statistics.median(wall), 6),
        "wall_p90_s": round(statistics.quantiles(wall, n=10)[8], 6),
        "kernel_ms_q1_q2_q3": "/".join(f"{1e3 * q:.3f}" for q in kernel_q),
        "kernel_samples": len(clock.costs),
    }
    return records, items, failures, metrics, notes


def traced_run(src, workload, items, seconds, span_path):
    from tracing import PASS_COUNTS, SELF_TIMES, Tracer

    tracer = Tracer(span_path)
    records, has_answer, pass_counts = [], set(), []
    spent = {True: 0.0, False: 0.0}  # op seconds with and without tracing
    while len(pass_counts) < MIN_TRACED_PASSES or spent[True] + spent[False] < seconds:
        fl = tracer.fl = load_flowinv(src)
        for pos, item in enumerate(items):
            # Each input runs traced and untraced back to back, in alternating
            # order, so that a slow spell of the machine hits both alike.
            for traced in (True, False) if (pos + len(pass_counts)) % 2 else (False, True):
                outcome = run_op(fl, workload, item, tracer if traced else None, len(records))
                spent[traced] += outcome[1]
                keep(workload, records, has_answer, pos, fl, *outcome)
        pass_counts.append(tracer.end_pass())
    traced_ops = len(records) // 2

    ok, answered, failures = check_records(workload, items, records)
    problems = [
        f"count {name} did not repeat across passes: {seen}"
        for name in PASS_COUNTS
        if len(set(seen := [c.get(name, 0) for c in pass_counts])) != 1
    ]
    counts = pass_counts[0]
    metrics = {
        name: (tracer.self_ns[layer] / 1e9 / traced_ops, "s/op")
        for name, layer in SELF_TIMES.items()
    }
    for name in PASS_COUNTS:
        metrics[name] = (counts.get(name, 0), "bits" if name.endswith("_bits") else "count")
    calls = counts.get("graph.canon_calls", 0)
    metrics["flowsearch.new_key_share"] = (
        counts.get("graph.canon_keys", 0) / calls if calls else 0.0,
        "ratio",
    )
    metrics["trace.overhead_share"] = (spent[True] / spent[False] - 1.0, "ratio")
    notes = {
        "passes": len(pass_counts),
        "samples": traced_ops,
        "traced_s": round(spent[True], 3),
        "untraced_s": round(spent[False], 3),
        "spans_per_pass": counts["trace.spans"],
        "spans_file": os.path.relpath(span_path),
    }
    return records, failures + problems, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    workload = WORKLOADS[ns.workload]

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flowinv", "__init__.py")):
        print(f"error: no flowinv sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _alarm)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as workdir:
        plan = workload.plan(random.Random(ns.seed), load_flowinv(src))
        if ns.trace:
            items = workload.build(plan, load_flowinv(src), workdir)
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            span_path = os.path.join(out_dir, f"spans-{ns.workload}-seed{ns.seed}.tsv")
            records, failures, metrics, notes = traced_run(
                src, workload, items, ns.seconds, span_path
            )
        else:
            records, items, failures, metrics, notes = plain_run(
                src, workload, plan, workdir, ns.seconds, random.Random(ns.seed)
            )

    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"# {ns.workload} seed={ns.seed} inputs={len(items)} budget={workload.budget_s}s "
        + " ".join(f"{k}={v}" for k, v in notes.items())
    )
    for name, (value, unit) in metrics.items():
        print(f"#   {name:28s} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
