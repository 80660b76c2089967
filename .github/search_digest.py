"""Print one sha256 over every answer of ``find_sequence`` on the search
benchmark's inputs, so that two versions of flowinv can be shown to give the
same answers.

    python .github/search_digest.py --src src 1 2 3

imports flowinv from the directory given by ``--src`` (the one holding the
``flowinv`` package) and, for each seed, builds the inputs of the ``search``
workload of bench/workloads.py, the 450 scrambles and the two exhausted
pairs, without changing that file.  Each answer contributes its summary as the
benchmark checks it, its script lines (``cli.format_move_step``), each step's
kind, labels, edges and incidence rows, and its ``SearchStats``; an
exhausted search, its reason and ``SearchStats``.  The last line is the
digest; the lines before it count the inputs and the answers found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def _graph(g) -> list:
    return [list(g.labels), [list(e) for e in g.edges], g.incidence().to_lists()]


def _record(fl, workload, result) -> list:
    """What one answer contributes to the digest, as JSON-able lists."""
    record = [repr(workload.summary(result))]
    if isinstance(result, fl.flowsearch.NotFoundWithinBounds):
        return record + [result.reason, result.stats.to_dict()]
    prev, steps = result.start, []
    for step in result.steps:
        steps.append([step.kind, fl.cli.format_move_step(prev, step), _graph(step.graph)])
        prev = step.graph
    return record + [_graph(result.start), steps, result.stats.to_dict()]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the flowinv package")
    parser.add_argument("seeds", type=int, nargs="+")
    ns = parser.parse_args(argv)
    src = os.path.abspath(ns.src)
    sys.path[:0] = [src, os.path.abspath(BENCH)]
    import flowinv.cli  # the package imports every module
    from workloads import WORKLOADS

    if not os.path.abspath(flowinv.__file__).startswith(src + os.sep):
        print(f"error: flowinv was imported from {flowinv.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS["search"]
    digest = hashlib.sha256()
    inputs = found = 0
    for seed in ns.seeds:
        plan = workload.plan(random.Random(seed), flowinv)
        for item in workload.build(plan, flowinv, None):
            result = workload.run(flowinv, item)
            digest.update(json.dumps(_record(flowinv, workload, result)).encode() + b"\n")
            inputs += 1
            found += workload.answered(result)
    print(f"seeds {' '.join(map(str, ns.seeds))}: {inputs} inputs, {found} found")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
