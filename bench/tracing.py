"""Spans and counts at flowinv's module boundaries, recorded from outside.

``Tracer.install`` replaces, in each flowinv module, the names that module
imported from the layer below with timing wrappers, and replaces
``MultiGraph.__init__`` so that every graph build is a span.  A span records
its layer, start, end, parent span and operation number.  Spans stay in
memory during a pass; ``end_pass`` turns them into self times, appends them
to a file and clears them.
"""

from __future__ import annotations

import time
from collections import Counter

# Layer of each wrapped name, per importing module: the names a module
# imported from the layer below that the three workloads call.
BOUNDARIES = {
    "cli": {
        "main": "cli",
        "parse_graph": "graph.parse",
        "franks_triple": "invariants",
        "decide": "classify",
    },
    "classify": {
        "classify_graph": "graph.report",
        "franks_triple": "invariants",
        "pointed_equivalent": "exactla.orbit",
    },
    "invariants": {
        "cokernel": "exactla.cokernel",
        "det": "exactla.det",
        "classify_graph": "graph.report",
    },
    "flowsearch": {
        "find_sequence": "flowsearch",
        "cokernel": "exactla.cokernel",
        "det": "exactla.det",
        "classify_graph": "graph.report",
        "canonical_key": "graph.canon",
        "bowen_franks_matrix": "invariants",
        "equiv_det_pair": "invariants",
        "franks_triple": "invariants",
        "in_split": "moves.split",
        "out_split": "moves.split",
        "expand": "moves.other",
        "contract": "moves.other",
        "eliminate_source": "moves.other",
        "in_amalgamate": "moves.other",
        "out_amalgamate": "moves.other",
    },
    # Amalgamations re-split through these module globals.
    "moves": {"in_split": "moves.split", "out_split": "moves.split"},
}

# Per-layer metric -> layer whose self time it reports, in seconds per op.
SELF_TIMES = {
    "cli.self_s": "cli",
    "classify.self_s": "classify",
    "invariants.self_s": "invariants",
    "exactla.cokernel_s": "exactla.cokernel",
    "exactla.det_s": "exactla.det",
    "exactla.orbit_s": "exactla.orbit",
    "graph.parse_s": "graph.parse",
    "graph.build_s": "graph.build",
    "graph.report_s": "graph.report",
    "graph.canon_s": "graph.canon",
    "moves.split_s": "moves.split",
    "moves.other_s": "moves.other",
    "flowsearch.self_s": "flowsearch",
}

# Counts made by the program's work; each must repeat exactly every pass.
PASS_COUNTS = (
    "graph.edges_built",
    "graph.canon_calls",
    "moves.split_calls",
    "flowsearch.expanded",
    "flowsearch.pruned",
    "flowsearch.partition_capped",
    "exactla.u_max_bits",
)


class Tracer:
    def __init__(self, span_path: str):
        self.fl = None  # the flowinv import to wrap; set before each pass
        self.span_path = span_path
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._keys: set = set()
        self._saved: list = []
        self._after = {
            "graph.canon": self._after_canon,
            "exactla.cokernel": self._after_cokernel,
            "moves.split": self._after_split,
        }
        with open(span_path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tlayer\tstart_ns\tend_ns\n")

    def _wrap(self, fn, layer: str, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, names in BOUNDARIES.items():
            mod = getattr(self.fl, module)
            for attr, layer in names.items():
                self._patch(mod, attr, self._wrap(getattr(mod, attr), layer, self._after.get(layer)))
        graph_cls = self.fl.graph.MultiGraph
        self._patch(graph_cls, "__init__", self._wrap(graph_cls.__init__, "graph.build", self._after_build))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _after_canon(self, args, key) -> None:
        self.counts["graph.canon_calls"] += 1
        self._keys.add(key)

    def _after_cokernel(self, args, result) -> None:
        bits = max((abs(x).bit_length() for row in result[1].u.entries for x in row), default=0)
        self.counts["exactla.u_max_bits"] = max(self.counts["exactla.u_max_bits"], bits)

    def _after_split(self, args, result) -> None:
        self.counts["moves.split_calls"] += 1

    def _after_build(self, args, result) -> None:
        self.counts["graph.edges_built"] += len(args[0].edges)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()
        self._keys.clear()

    def end_op(self, result) -> None:
        """Count what one op left behind: distinct canonical keys, and the
        search statistics carried by NotFoundWithinBounds."""
        self.stack.clear()
        self.counts["graph.canon_keys"] += len(self._keys)
        stats = getattr(result, "stats", None)
        if isinstance(stats, self.fl.flowsearch.SearchStats):
            for name, value in stats.to_dict().items():
                self.counts["flowsearch." + name] += value

    def end_pass(self) -> dict:
        """Fold this pass's spans into self times, write them, and return the
        pass's counts."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        with open(self.span_path, "a", encoding="utf-8") as fh:
            for idx, span in enumerate(spans):
                if span is None:  # cut short by the op budget mid-record
                    continue
                layer, start, end, parent, op = span
                self.self_ns[layer] += end - start - covered[idx]
                fh.write(f"{op}\t{idx}\t{parent}\t{layer}\t{start}\t{end}\n")
        counts = dict(self.counts)
        counts["trace.spans"] = len(spans)
        spans.clear()
        self.counts.clear()
        return counts
