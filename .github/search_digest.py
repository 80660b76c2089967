"""Print two sha256 digests over every answer of ``find_sequence`` on the
search benchmark's inputs, so that two versions of flowinv can be shown to
give the same answers, or the same paths by other moves.

    python .github/search_digest.py --src src 1 2 3

imports flowinv from the directory given by ``--src`` (the one holding the
``flowinv`` package) and, for each seed, builds the inputs of the ``search``
workload of bench/workloads.py, the 450 scrambles and the two exhausted
pairs, without changing that file.  Each answer contributes its summary as the
benchmark checks it, its script lines (``cli.format_move_step``), each step's
kind, labels, edges and incidence rows, and its ``SearchStats``; an
exhausted search, its reason and ``SearchStats``.  The second digest
leaves the scripts and graphs out: each found answer contributes its length,
the ``canonical_key`` of each step's graph and its ``SearchStats``.  Two
versions with equal second digests visit the same keys in the same order,
even where some step takes another move to the same key.  The first line
counts the inputs and the answers found; the next two are the digests,
``scripts`` and then ``keys``.  The last, ``keyings``, counts the
``canonical_rows_key`` calls those ``find_sequence`` runs made, counted by
wrapping ``flowinv.flowsearch.canonical_rows_key``; it is a cost, not part
of an answer.
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


def _keys_record(fl, result) -> list:
    """What one answer contributes to the keys digest: no script, no graph."""
    if isinstance(result, fl.flowsearch.NotFoundWithinBounds):
        return [result.reason, result.stats.to_dict()]
    keys = [fl.graph.canonical_key(step.graph) for step in result.steps]
    return [len(result), keys, result.stats.to_dict()]


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
    keyings = 0
    rows_key = flowinv.flowsearch.canonical_rows_key

    def counted(m):
        nonlocal keyings
        keyings += 1
        return rows_key(m)

    flowinv.flowsearch.canonical_rows_key = counted
    digest, keys_digest = hashlib.sha256(), hashlib.sha256()
    inputs = found = 0
    for seed in ns.seeds:
        plan = workload.plan(random.Random(seed), flowinv)
        for item in workload.build(plan, flowinv, None):
            result = workload.run(flowinv, item)
            digest.update(json.dumps(_record(flowinv, workload, result)).encode() + b"\n")
            keys_digest.update(json.dumps(_keys_record(flowinv, result)).encode() + b"\n")
            inputs += 1
            found += workload.answered(result)
    print(f"seeds {' '.join(map(str, ns.seeds))}: {inputs} inputs, {found} found")
    print(f"scripts {digest.hexdigest()}")
    print(f"keys {keys_digest.hexdigest()}")
    print(f"keyings {keyings}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
