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
begins the line or follows any whitespace (``str.isspace``, so tabs,
no-break and ideographic spaces too); a mid-token ``#`` belongs to the
token, because split vertices are named like ``v0#2``.  The table in
:mod:`flowinv.moves` gives each keyword's arguments, and so its arity and,
by their names, its script form.  Both kinds of file are read as UTF-8; a
byte that is not UTF-8 is a parse error at its line and column.

Each subcommand handler returns its result, and :func:`main` alone writes
it: the JSON payload under ``"schema"`` and ``"command"`` with ``--json``,
else the text lines.  ``main`` alone also maps errors to exit status 2.

Exit status: 2 for parse or validation problems, 1 for a failing selftest,
141 when stdout is closed before the result is written (128 + SIGPIPE, with
nothing on stderr), 0 otherwise — verdicts and exhausted searches are data,
not failures.  An error in a ``--script`` file names the file and the line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
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


@contextlib.contextmanager
def _in_file(path: str):
    """Name ``path`` in a ParseError raised in the block, for ``main`` to
    print before its line and column."""
    try:
        yield
    except ParseError as exc:
        exc.path = path
        raise


def _read(path: str) -> str:
    """The text of a graph or script file.  A byte that is not UTF-8 is a
    ParseError at its line and column, which line splitting counts as the
    parsers do."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[: exc.start].decode("utf-8") + "\0").splitlines()
        message = f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        raise ParseError(len(lines), len(lines[-1]), message) from None


def _load_graph(path: str) -> MultiGraph:
    with _in_file(path):
        return parse_graph(_read(path))


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
        if ch == "#" and (idx == 0 or raw[idx - 1].isspace()):
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
        if tokens[0] in ("class", "delay") and not steps:
            raise ParseError(lineno, 1, f"{tokens[0]} line before any move line")
        if tokens[0] == "class":
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
    """Resolve one script step against the current graph and apply it.

    The argument names in the move table choose where the values come from:
    a ``partition`` from class lines, a ``vector`` from delay lines,
    ``blocks`` from comma-joined tokens, and any other argument from one
    plain token each.  A stray or malformed class or delay line is a
    ParseError at that line; every other error names no line, and a script
    puts it at the step's ``move`` line."""
    name = step.name
    spec = move_spec(name)
    names = spec.required + spec.optional
    if step.class_lines and "partition" not in names:
        raise ParseError(step.class_lines[0][0], 1, "class lines only follow in-split/out-split")
    lines = "class" if "partition" in names else "delay" if "vector" in names else None
    if lines and step.tokens:
        raise MoveError(f"{name} takes {lines} lines, not inline arguments")
    if lines == "class" and not step.class_lines:
        raise MoveError(f"{name} needs class lines")
    if step.delay_lines and lines != "delay":
        raise ParseError(step.delay_lines[0][0], 1, "delay lines only follow a delay move")
    mode = name.split("-")[0]
    if lines == "class":
        values = [_partition_from_lines(g, mode, step.class_lines)]
    elif lines == "delay":
        values = [_vector_from_lines(g, move_side(mode).vector_kind, step.delay_lines)]
    elif "blocks" in names:
        if not step.tokens:
            raise MoveError(f"{name} needs at least one block")
        values = [[token.split(",") for token in step.tokens]]
    else:
        values = step.tokens
    low = len(spec.required)
    if not low <= len(values) <= len(names):
        raise MoveError(f"move {name} takes {low} to {len(names)} arguments, got {len(values)}")
    return apply_move(g, name, dict(zip(names, values)))


def format_move_step(prev: MultiGraph, step: MoveStep) -> list[str]:
    """Render one applied move as replayable script lines: the inverse of
    :func:`apply_script_step`, whose form the move table chooses."""
    kind, args = step.kind, step.args
    spec = move_spec(kind)
    if "partition" in spec.required:
        partition = args["partition"]
        lines = [f"move {kind}"]
        for v in sorted(partition.classes):
            for i, cls in enumerate(partition.classes[v], start=1):
                lines.append(f"class {prev.label(v)} {i}: {','.join(cls)}")
        return lines
    if "vector" in spec.required:
        vector = args["vector"]
        lines = [f"move {kind}"]
        for eid in sorted(vector.edges):
            if vector.edges[eid]:
                lines.append(f"delay {eid} {vector.edges[eid]}")
        for v in sorted(vector.vertices):
            if vector.vertices[v] and not vector.side.edges(prev, v):
                lines.append(f"delay @{prev.label(v)} {vector.vertices[v]}")
        return lines
    if "blocks" in spec.required:
        return [f"move {kind} " + " ".join(",".join(block) for block in args["blocks"])]
    values = [args[name] for name in spec.required]
    values += [args[name] for name in spec.optional if args.get(name) is not None]
    return [" ".join(["move", kind, *map(str, values)])]


def _apply_script(g: MultiGraph, path: str) -> tuple[MultiGraph, int]:
    """Apply the move script at ``path``; returns the final graph and the
    number of moves.  Every parse or move error names the file and its
    line: a step's MoveError or GraphError sits at its ``move`` line."""
    with _in_file(path):
        steps = parse_move_script(_read(path))
        for step in steps:
            try:
                g = apply_script_step(g, step)
            except (MoveError, GraphError) as exc:
                raise ParseError(step.lineno, 1, str(exc)) from None
    if not steps:
        raise MoveError(f"script {path} contains no moves")
    return g, len(steps)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns its JSON payload (without "schema" and
# "command"), a callable that formats its text lines, and an exit status when
# that is not 0.


def _cmd_check(ns):
    g = _load_graph(ns.graph)
    report = classify_graph(g).to_dict()
    return {"vertices": g.n, "edges": g.edge_count, "report": report}, lambda: [
        f"vertices: {g.n}",
        f"edges: {g.edge_count}",
        *(f"{key}: {json.dumps(value)}" for key, value in report.items()),
    ]


def _cmd_invariants(ns):
    triple = franks_triple(_load_graph(ns.graph))
    return {"invariants": triple.to_dict()}, lambda: [
        f"group: {triple.group}",
        f"unit: {list(triple.unit_class)}",
        f"det: {triple.determinant}",
        f"pis: {json.dumps(triple.pis)}",
    ]


def _cmd_move(ns):
    if ns.script and len(ns.tokens) != 1:
        raise MoveError("with --script, give exactly one graph file")
    if not ns.script and len(ns.tokens) < 2:
        raise MoveError("usage: move <name> [args...] <graph>, or move --script FILE <graph>")
    g = _load_graph(ns.tokens[-1])
    if ns.script:
        g, applied = _apply_script(g, ns.script)
    else:
        g, applied = apply_script_step(g, ScriptStep(1, ns.tokens[0], ns.tokens[1:-1])), 1
    text = format_graph(g)
    payload = {
        "applied": applied,
        "graph": text,
        "labels": list(g.labels),
        "matrix": g.incidence().to_lists(),
    }
    return payload, text.splitlines


def _cmd_classify(ns):
    if ns.transpose and ns.right is not None:
        raise GraphError("classify --transpose takes one graph file, not two")
    left = _load_graph(ns.left)
    if ns.transpose:
        verdict = decide_transpose(left)
    else:
        if ns.right is None:
            raise GraphError("classify needs two graph files (or one with --transpose)")
        verdict = decide(left, _load_graph(ns.right))
    return {"verdict": verdict.to_dict()}, lambda: [
        f"morita: {verdict.morita.value}",
        f"isomorphic: {verdict.isomorphic.value}",
        f"levels: {', '.join(verdict.levels)}",
        f"tag: {verdict.reason_tag}",
        f"reason: {verdict.reason}",
    ]


def _cmd_search(ns):
    src = _load_graph(ns.start)
    dst = _load_graph(ns.goal)
    try:
        sequence = find_sequence(
            src, dst, max_depth=ns.depth, max_vertices=ns.max_vertices
        )
    except NotFoundWithinBounds as exc:
        payload = {
            "found": False,
            "reason": exc.reason,
            "message": str(exc),
            "stats": exc.stats.to_dict(),
        }
        return payload, lambda: [
            f"not found: {payload['message']}",
            f"reason: {payload['reason']}",
        ]
    lines = []
    prev = sequence.start
    for step in sequence.steps:
        lines.extend(format_move_step(prev, step))
        prev = step.graph
    payload = {
        "found": True,
        "moves": len(sequence),
        "script": lines,
        "stats": sequence.stats.to_dict(),
    }
    return payload, lambda: [f"# {len(sequence)} move(s)", *lines]


def _cmd_selftest(ns):
    rows = run_selftest(seed=ns.seed)
    failed = sum(not passed for _, passed, _ in rows)
    payload = {
        "seed": ns.seed,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in rows
        ],
        "passed": len(rows) - failed,
        "failed": failed,
    }

    def text():
        lines = [f"PASS {name}" if ok else f"FAIL {name}: {detail}" for name, ok, detail in rows]
        return [*lines, f"{len(rows)} checks: {len(rows) - failed} passed, {failed} failed"]

    return payload, text, 1 if failed else 0


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
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("invariants", help="Bowen-Franks group, unit class, det")
    p.add_argument("graph", help="graph file")
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
    p.set_defaults(handler=_cmd_move)

    p = sub.add_parser("classify", help="Morita/isomorphism verdict for two graphs")
    p.add_argument("left", help="first graph file")
    p.add_argument("right", nargs="?", help="second graph file")
    p.add_argument(
        "--transpose",
        action="store_true",
        help="compare the first graph against its own transpose",
    )
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
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("selftest", help="replay the built-in worked examples")
    p.add_argument("--seed", type=int, default=0, help="seed for the random sweeps")
    p.set_defaults(handler=_cmd_selftest)

    # Last in each subcommand's help, after its own arguments.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        payload, text, *status = ns.handler(ns)
        if ns.json:
            print(json.dumps({"schema": SCHEMA, "command": ns.command, **payload}, indent=2))
        else:
            print("\n".join(text()))
        sys.stdout.flush()
        return status[0] if status else 0
    except BrokenPipeError:
        # The reader closed stdout.  Send what is still buffered to the null
        # device, so the flush at exit cannot fail again, and exit as a
        # process killed by SIGPIPE would.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (ParseError, GraphError, MoveError, OSError) as exc:
        path = getattr(exc, "path", None)
        where = f"{path}: " if path else ""
        print(f"error: {where}{exc}", file=sys.stderr)
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
