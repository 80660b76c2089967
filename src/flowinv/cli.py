"""Command-line front end.

Subcommands::

    check      structural predicates of a graph
    invariants Bowen-Franks group, unit class, determinant
    move       apply one move inline, or a script of moves
    classify   Morita-equivalence / isomorphism verdict for two graphs
    search     bounded search for a move sequence between two graphs
    selftest   replay the built-in worked examples

Graph files use the text format of :mod:`flowinv.graph` (``matrix n`` or
``edges n`` blocks, ``#`` comments).  Move scripts hold one move per
``move <name> <args>`` line; an in-split or out-split is followed by its
``class <vertex> <i>: <edge>,<edge>,...`` lines, and a delay by
``delay <edge> <k>`` lines (``delay @<vertex> <k>`` pins a vertex without
incident edges on the delayed side).  Script comments start at a ``#`` that
begins the line or follows whitespace; a mid-token ``#`` belongs to the
token, because split vertices are named like ``v0#2``.  The table in
:mod:`flowinv.moves` gives each keyword's arguments and so its arity.

Exit status: 2 for parse or validation problems, 1 for a failing selftest,
0 otherwise — verdicts and exhausted searches are data, not failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from flowinv.classify import decide, decide_transpose
from flowinv.flowsearch import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_VERTICES,
    MoveStep,
    NotFoundWithinBounds,
    find_sequence,
)
from flowinv.graph import (
    GraphError,
    MultiGraph,
    ParseError,
    classify_graph,
    format_graph,
    int_string_limit,
    parse_graph,
)
from flowinv.invariants import franks_triple
from flowinv.moves import DrinenVector, MoveError, Partition, apply_move, move_side, move_spec
from flowinv.selftest import run_selftest

SCHEMA = 1


def _load_graph(path: str) -> MultiGraph:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_graph(text)
    except ParseError as exc:
        exc.path = path
        raise


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# Move scripts.


class ScriptStep:
    """One parsed ``move`` line with its attached class/delay lines."""

    def __init__(self, lineno: int, name: str, tokens: list[str]):
        self.lineno = lineno
        self.name = name
        self.tokens = tokens
        self.class_lines: list[tuple[int, str, int, list[str]]] = []
        self.delay_lines: list[tuple[int, str, int]] = []


def _strip_comment(raw: str) -> str:
    """Drop a trailing comment: a '#' at line start or after whitespace.

    Mid-token '#' is kept, because split vertices and duplicated edges carry
    names like ``v0#2`` and ``e1#3``.
    """
    for idx, ch in enumerate(raw):
        if ch == "#" and (idx == 0 or raw[idx - 1] in " \t"):
            return raw[:idx]
    return raw


def parse_move_script(text: str) -> list[ScriptStep]:
    """Parse a move script into steps; raises ParseError with the line."""
    steps: list[ScriptStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "move":
            if len(tokens) < 2:
                raise ParseError(lineno, 1, "move line needs a move name")
            steps.append(ScriptStep(lineno, tokens[1], tokens[2:]))
            continue
        if tokens[0] == "class":
            if not steps:
                raise ParseError(lineno, 1, "class line before any move line")
            head, _, tail = line.partition(":")
            parts = head.split()
            if len(parts) != 3 or not tail.strip():
                raise ParseError(
                    lineno, 1, "expected 'class <vertex> <i>: <edge>,<edge>,...'"
                )
            try:
                index = int(parts[2])
            except ValueError:
                raise ParseError(lineno, 1, f"class index {parts[2]!r} is not an integer")
            edge_ids = [tok.strip() for tok in tail.split(",") if tok.strip()]
            steps[-1].class_lines.append((lineno, parts[1], index, edge_ids))
            continue
        if tokens[0] == "delay":
            if not steps:
                raise ParseError(lineno, 1, "delay line before any move line")
            if len(tokens) != 3:
                raise ParseError(lineno, 1, "expected 'delay <edge> <k>' or 'delay @<vertex> <k>'")
            try:
                value = int(tokens[2])
            except ValueError:
                raise ParseError(lineno, 1, f"delay value {tokens[2]!r} is not an integer")
            steps[-1].delay_lines.append((lineno, tokens[1], value))
            continue
        raise ParseError(lineno, 1, f"unrecognized script line {line!r}")
    return steps


def _partition_from_lines(g: MultiGraph, mode: str, class_lines) -> Partition:
    table: dict[int, dict[int, list[str]]] = {}
    for lineno, vtok, index, edge_ids in class_lines:
        v = g.vertex(vtok)
        if index < 1:
            raise ParseError(lineno, 1, f"class index must be at least 1, got {index}")
        slot = table.setdefault(v, {})
        if index in slot:
            raise ParseError(lineno, 1, f"class {index} at {vtok} given twice")
        slot[index] = edge_ids
    classes = {}
    for v, slot in table.items():
        m = max(slot)
        if len(slot) != m:  # distinct indices from 1 up: a gap leaves fewer than m
            raise MoveError(
                f"classes at {g.label(v)} must be numbered 1..{m} without gaps"
            )
        classes[v] = [slot[i] for i in range(1, m + 1)]
    # Vertices without class lines keep their whole edge set in one class.
    for v, whole in Partition.trivial(g, mode).classes.items():
        classes.setdefault(v, whole)
    return Partition(classes)


def _vector_from_lines(g: MultiGraph, kind: str, delay_lines) -> DrinenVector:
    edges: dict[str, int] = {}
    overrides: dict[int, int] = {}
    for _lineno, target, value in delay_lines:
        if target.startswith("@"):
            overrides[g.vertex(target[1:])] = value
        else:
            edges[target] = value
    return DrinenVector.from_edges(g, kind, edges, overrides)


def apply_script_step(g: MultiGraph, step: ScriptStep) -> MultiGraph:
    """Resolve one script step against the current graph and apply it; the
    move table names the values read from its lines or tokens."""
    name = step.name
    if name in ("in-split", "out-split"):
        if step.tokens:
            raise ParseError(
                step.lineno, 1, f"{name} takes class lines, not inline arguments"
            )
        if not step.class_lines:
            raise ParseError(step.lineno, 1, f"{name} needs class lines")
        if step.delay_lines:
            raise ParseError(step.lineno, 1, "delay lines only follow a delay move")
        mode, _ = name.split("-")
        values = [_partition_from_lines(g, mode, step.class_lines)]
    elif step.class_lines:
        raise ParseError(
            step.class_lines[0][0], 1, "class lines only follow in-split/out-split"
        )
    elif name in ("in-delay", "out-delay"):
        if step.tokens:
            raise ParseError(
                step.lineno, 1, f"{name} takes delay lines, not inline arguments"
            )
        mode, _ = name.split("-")
        values = [_vector_from_lines(g, move_side(mode).vector_kind, step.delay_lines)]
    elif step.delay_lines:
        raise ParseError(step.delay_lines[0][0], 1, "delay lines only follow a delay move")
    elif name in ("in-amalgamate", "out-amalgamate"):
        if not step.tokens:
            raise ParseError(step.lineno, 1, f"{name} needs at least one block")
        values = [[token.split(",") for token in step.tokens]]
    else:
        values = step.tokens
    spec = move_spec(name)
    low, names = len(spec.required), spec.required + spec.optional
    if not low <= len(values) <= len(names):
        raise ParseError(
            step.lineno,
            1,
            f"move {name} takes {low} to {len(names)} arguments, got {len(values)}",
        )
    return apply_move(g, name, dict(zip(names, values)))


def format_move_step(prev: MultiGraph, step: MoveStep) -> list[str]:
    """Render one applied move as replayable script lines: the inverse of
    :func:`apply_script_step`."""
    kind, args = step.kind, step.args
    spec = move_spec(kind)
    values = [args[name] for name in spec.required]
    values += [args[name] for name in spec.optional if args.get(name) is not None]
    if kind in ("in-split", "out-split"):
        (partition,) = values
        lines = [f"move {kind}"]
        for v in sorted(partition.classes):
            for i, cls in enumerate(partition.classes[v], start=1):
                lines.append(f"class {prev.label(v)} {i}: {','.join(cls)}")
        return lines
    if kind in ("in-amalgamate", "out-amalgamate"):
        (blocks,) = values
        return [f"move {kind} " + " ".join(",".join(block) for block in blocks)]
    if kind in ("in-delay", "out-delay"):
        (vector,) = values
        lines = [f"move {kind}"]
        for eid in sorted(vector.edges):
            if vector.edges[eid]:
                lines.append(f"delay {eid} {vector.edges[eid]}")
        for v in sorted(vector.vertices):
            if vector.vertices[v] and not vector.side.edges(prev, v):
                lines.append(f"delay @{prev.label(v)} {vector.vertices[v]}")
        return lines
    return [" ".join(["move", kind, *map(str, values)])]


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_check(ns) -> int:
    g = _load_graph(ns.graph)
    report = classify_graph(g)
    if ns.json:
        _emit_json(
            {
                "command": "check",
                "vertices": g.n,
                "edges": g.edge_count,
                "report": report.to_dict(),
            }
        )
        return 0
    lines = [f"vertices: {g.n}", f"edges: {g.edge_count}"]
    lines += [f"{key}: {_bool(value)}" for key, value in report.to_dict().items()]
    print("\n".join(lines))
    return 0


def _cmd_invariants(ns) -> int:
    g = _load_graph(ns.graph)
    triple = franks_triple(g)
    if ns.json:
        _emit_json({"command": "invariants", "invariants": triple.to_dict()})
        return 0
    lines = [
        f"group: {triple.group}",
        f"unit: {list(triple.unit_class)}",
        f"det: {triple.determinant}",
        f"pis: {_bool(triple.pis)}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_move(ns) -> int:
    if ns.script:
        if len(ns.tokens) != 1:
            raise MoveError("with --script, give exactly one graph file")
        g = _load_graph(ns.tokens[0])
        with open(ns.script, encoding="utf-8") as handle:
            steps = parse_move_script(handle.read())
        if not steps:
            raise MoveError(f"script {ns.script} contains no moves")
        for step in steps:
            g = apply_script_step(g, step)
        applied = len(steps)
    else:
        if len(ns.tokens) < 2:
            raise MoveError("usage: move <name> [args...] <graph>, or move --script FILE <graph>")
        g = _load_graph(ns.tokens[-1])
        step = ScriptStep(1, ns.tokens[0], ns.tokens[1:-1])
        g = apply_script_step(g, step)
        applied = 1
    text = format_graph(g)
    if ns.json:
        _emit_json(
            {
                "command": "move",
                "applied": applied,
                "graph": text,
                "labels": list(g.labels),
                "matrix": g.incidence().to_lists(),
            }
        )
        return 0
    sys.stdout.write(text)
    return 0


def _cmd_classify(ns) -> int:
    if ns.transpose and ns.right is not None:
        raise GraphError("classify --transpose takes one graph file, not two")
    left = _load_graph(ns.left)
    if ns.transpose:
        verdict = decide_transpose(left)
    else:
        if ns.right is None:
            raise GraphError("classify needs two graph files (or one with --transpose)")
        verdict = decide(left, _load_graph(ns.right))
    if ns.json:
        _emit_json({"command": "classify", "verdict": verdict.to_dict()})
        return 0
    print(f"morita: {verdict.morita.value}")
    print(f"isomorphic: {verdict.isomorphic.value}")
    print(f"levels: {', '.join(verdict.levels)}")
    print(f"tag: {verdict.reason_tag}")
    print(f"reason: {verdict.reason}")
    return 0


def _cmd_search(ns) -> int:
    src = _load_graph(ns.start)
    dst = _load_graph(ns.goal)
    try:
        sequence = find_sequence(
            src, dst, max_depth=ns.depth, max_vertices=ns.max_vertices
        )
    except NotFoundWithinBounds as exc:
        if ns.json:
            _emit_json(
                {
                    "command": "search",
                    "found": False,
                    "reason": exc.reason,
                    "message": str(exc),
                    "stats": exc.stats.to_dict(),
                }
            )
        else:
            print(f"not found: {exc}")
            print(f"reason: {exc.reason}")
        return 0
    lines = []
    prev = sequence.start
    for step in sequence.steps:
        lines.extend(format_move_step(prev, step))
        prev = step.graph
    if ns.json:
        _emit_json(
            {
                "command": "search",
                "found": True,
                "moves": len(sequence),
                "script": lines,
                "stats": sequence.stats.to_dict(),
            }
        )
        return 0
    print(f"# {len(sequence)} move(s)")
    for line in lines:
        print(line)
    return 0


def _cmd_selftest(ns) -> int:
    rows = run_selftest(seed=ns.seed)
    failed = [row for row in rows if not row[1]]
    if ns.json:
        _emit_json(
            {
                "command": "selftest",
                "seed": ns.seed,
                "checks": [
                    {"name": name, "passed": passed, "detail": detail}
                    for name, passed, detail in rows
                ],
                "passed": len(rows) - len(failed),
                "failed": len(failed),
            }
        )
        return 1 if failed else 0
    for name, passed, detail in rows:
        print(f"PASS {name}" if passed else f"FAIL {name}: {detail}")
    print(f"{len(rows)} checks: {len(rows) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call: each build leaves its actions and formatters in reference
    cycles that only the cyclic garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="flowinv",
        description=(
            "Flow-equivalence invariants, graph moves, and classification "
            "verdicts for finite directed multigraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural predicates of a graph")
    p.add_argument("graph", help="graph file")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("invariants", help="Bowen-Franks group, unit class, det")
    p.add_argument("graph", help="graph file")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser(
        "move",
        help="apply a move (inline) or a script of moves to a graph",
        description=(
            "Inline: move <name> [args...] <graph-file>.  Splits and delays "
            "need class/delay lines, so they run from a script: "
            "move --script FILE <graph-file>."
        ),
    )
    p.add_argument("tokens", nargs="+", metavar="ARG", help="move name, arguments, graph file")
    p.add_argument("--script", metavar="FILE", help="move script to replay")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_move)

    p = sub.add_parser("classify", help="Morita/isomorphism verdict for two graphs")
    p.add_argument("left", help="first graph file")
    p.add_argument("right", nargs="?", help="second graph file")
    p.add_argument(
        "--transpose",
        action="store_true",
        help="compare the first graph against its own transpose",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("search", help="bounded move-sequence search between two graphs")
    p.add_argument("start", help="start graph file")
    p.add_argument("goal", help="goal graph file")
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH, help="total move budget")
    p.add_argument(
        "--max-vertices",
        type=int,
        default=DEFAULT_MAX_VERTICES,
        help="largest intermediate graph explored",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("selftest", help="replay the built-in worked examples")
    p.add_argument("--seed", type=int, default=0, help="seed for the random sweeps")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns)
    except (ParseError, GraphError, MoveError) as exc:
        path = getattr(exc, "path", None)
        where = f"{path}: " if path else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python refuses to write an integer past its int-string limit with
        # a plain ValueError, marked only by a message that names
        # sys.set_int_max_str_digits(); any other ValueError is a bug.
        if not int_string_limit() or "set_int_max_str_digits" not in str(exc):
            raise
        print(
            "error: a result has an integer of more than "
            f"{int_string_limit()} decimal digits, Python's int-string limit "
            "(sys.get_int_max_str_digits())",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
