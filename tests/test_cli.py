"""Command-line interface: subcommands, scripts, JSON output, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not POSIX
    resource = None

from flowinv.cli import format_move_step, main, parse_move_script
from flowinv.flowsearch import MAX_SEARCH_ENTRY, MoveStep
from flowinv.graph import (
    MAX_VERTICES,
    MultiGraph,
    ParseError,
    int_string_limit,
    is_isomorphic,
    parse_graph,
)
from flowinv.invariants import franks_triple
from flowinv.moves import MOVES, DrinenVector, Partition, apply_move


ROSE4 = "edges 1\n0 0 4\n"
COMPANION = "matrix 2\n1 1\n3 2\n"
TWO = "matrix 2\n1 1\n1 1\n"
SPLIT_BASE = "matrix 2\n1 1\n1 0\n"


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check / invariants.


def test_check_text_output(tmp_path, capsys):
    path = _write(tmp_path, "rose.graph", ROSE4)
    code, out, err = _run(capsys, ["check", path])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "vertices: 1"
    assert lines[1] == "edges: 4"
    assert "purely_infinite_simple: true" in lines
    assert "has_sources: false" in lines


def test_check_json_output(tmp_path, capsys):
    path = _write(tmp_path, "rose.graph", ROSE4)
    code, out, _ = _run(capsys, ["check", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "check"
    assert payload["vertices"] == 1 and payload["edges"] == 4
    assert payload["report"]["purely_infinite_simple"] is True


def test_invariants_text_output(tmp_path, capsys):
    path = _write(tmp_path, "rose.graph", ROSE4)
    code, out, _ = _run(capsys, ["invariants", path])
    assert code == 0
    assert out.splitlines() == ["group: Z/3", "unit: [1]", "det: -3", "pis: true"]


def test_invariants_json_output(tmp_path, capsys):
    path = _write(tmp_path, "comp.graph", COMPANION)
    code, out, _ = _run(capsys, ["invariants", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["invariants"] == {
        "group": {"torsion": [3], "free_rank": 0},
        "unit": [1],
        "det": -3,
        "pis": True,
    }


HUGE = 99999999999999999999


def _run_capped(argv, seconds: float, mem_bytes: int):
    """Run the CLI in a child process under a wall budget (TimeoutExpired
    past it) and an address-space cap, so that a regression that builds one
    object per edge fails fast instead of hanging or exhausting memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    return subprocess.run(
        [sys.executable, "-m", "flowinv", *argv],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=cap,
    )


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
@pytest.mark.parametrize(
    "text", [f"matrix 1\n{HUGE}\n", f"edges 1\n0 0 {HUGE}\n"], ids=["matrix", "edges"]
)
def test_huge_multiplicity_answers_within_budget(tmp_path, text):
    path = _write(tmp_path, "huge.graph", text)
    inv = _run_capped(["invariants", path, "--json"], 2.0, 1 << 30)
    assert inv.returncode == 0, inv.stderr
    invariants = json.loads(inv.stdout)["invariants"]
    assert invariants["det"] == 1 - HUGE
    assert invariants["group"]["torsion"] == [HUGE - 1]
    check = _run_capped(["check", path, "--json"], 2.0, 1 << 30)
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout)["edges"] == HUGE
    mirror = _run_capped(["classify", "--transpose", path, "--json"], 2.0, 1 << 30)
    assert mirror.returncode == 0, mirror.stderr
    assert json.loads(mirror.stdout)["verdict"]["reason_tag"] == "franks-triple-match"


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_expansion_of_a_huge_multiplicity_answers_within_budget(tmp_path):
    # expand builds the child's matrix; none of the 10^7 edges is built.
    path = _write(tmp_path, "huge.graph", "matrix 1\n10000000\n")
    done = _run_capped(["move", "expand", "v0", path, "--json"], 2.0, 1 << 30)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["labels"] == ["v0", "v0*"]
    assert result["matrix"] == [[0, 1], [10000000, 0]]


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_search_to_a_huge_expansion_answers_within_budget(tmp_path):
    # The search replays the expansion it found through the move itself, at
    # the largest entry the search admits.
    top = MAX_SEARCH_ENTRY
    start = _write(tmp_path, "start.graph", f"matrix 1\n{top}\n")
    goal = _write(tmp_path, "goal.graph", f"matrix 2\n0 1\n{top} 0\n")
    done = _run_capped(["search", start, goal, "--json"], 2.0, 1 << 30)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["script"] == ["move expand v0"]


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_search_undoes_a_goal_side_amalgamation_past_the_partition_cap(tmp_path):
    # The rose of 2,000 loops in-splits into the all-1,000 2x2 matrix only by
    # the partition (1000), (1000), far past the cap.  The goal's side
    # reaches the rose by one amalgamation, and the replay builds the split
    # that undoes it without enumerating a partition.
    start = _write(tmp_path, "start.graph", "matrix 1\n2000\n")
    goal = _write(tmp_path, "goal.graph", "matrix 2\n1000 1000\n1000 1000\n")
    done = _run_capped(["search", start, goal, "--json"], 2.0, 1 << 30)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["moves"] == 1
    assert result["script"][0] == "move in-split"


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_search_refuses_an_entry_past_the_entry_budget(tmp_path):
    # Splitting 10^8 loops would draw partitions from a pool of 10^8 ints.
    start = _write(tmp_path, "start.graph", "matrix 1\n100000000\n")
    half = "50000000 50000000"
    goal = _write(tmp_path, "goal.graph", f"matrix 2\n{half}\n{half}\n")
    done = _run_capped(["search", start, goal], 2.0, 1 << 30)
    assert done.returncode == 2 and not done.stdout
    assert (
        "the start graph has an entry of 100000000, above the search's entry budget "
        f"of {MAX_SEARCH_ENTRY:,}"
    ) in done.stderr


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_search_refuses_a_key_past_the_order_budget(tmp_path):
    # The 11-vertex circulant v -> v+1, v+2 is regular, so colour refinement
    # leaves it one cell of 11! vertex orders: its key is refused, not tried.
    rows = [" ".join("1" if (j - i) % 11 in (1, 2) else "0" for j in range(11)) for i in range(11)]
    path = _write(tmp_path, "c11.graph", "matrix 11\n" + "\n".join(rows) + "\n")
    done = _run_capped(["search", "--max-vertices", "11", path, path], 2.0, 1 << 30)
    assert done.returncode == 2 and not done.stdout
    assert "more than 362,880 (9!) vertex orders" in done.stderr


def test_split_after_thousands_of_matrix_first_moves(tmp_path, capsys):
    # 2,000 moves that name no edge, then a split that names edges: the ids
    # it names are derived through every step, in a loop, and the result is
    # the split's alone, since each expansion is undone by its contraction.
    graph = _write(tmp_path, "g.graph", "matrix 2\n1 1\n1 0\n")
    split = "move in-split\nclass v0 1: e0\nclass v0 2: e2\n"
    chain = "move expand v0\nmove contract v0 v0*\n" * 1000
    outputs = []
    for name, text in (("long.script", chain + split), ("short.script", split)):
        script = _write(tmp_path, name, text)
        assert main(["move", "--script", script, graph, "--json"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0]["applied"] == 2001
    assert outputs[0]["labels"] == outputs[1]["labels"] == ["v0#1", "v0#2", "v1#1"]
    assert outputs[0]["matrix"] == outputs[1]["matrix"] == [[1, 0, 1], [1, 0, 1], [0, 1, 0]]


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_large_torsion_classify_answers_within_budget():
    # A 40-vertex graph whose torsion has a 27-digit invariant factor: the
    # unit-class orbit test must not factor it.
    path = str(Path(__file__).parent / "data" / "large_torsion_n40.graph")
    done = _run_capped(["classify", "--transpose", path, "--json"], 2.0, 1 << 30)
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout)["verdict"]
    assert verdict["morita"] == "yes"
    assert verdict["isomorphic"] != "unknown"


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_huge_class_index_is_a_gap_not_a_range(tmp_path):
    # The gap check must not build the range 1..index.
    graph = _write(tmp_path, "base.graph", SPLIT_BASE)
    script = _write(tmp_path, "gap.script", "move in-split\nclass v0 1000000000: e0\n")
    done = _run_capped(["move", "--script", script, graph], 2.0, 1 << 30)
    assert done.returncode == 2 and not done.stdout
    assert "classes at v0 must be numbered 1..1000000000 without gaps" in done.stderr


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_vertex_count_past_the_budget_exits_2_before_allocating(tmp_path):
    # An edges header allocates n by n; the budget is checked first.
    path = _write(tmp_path, "wide.graph", "edges 100000000\n")
    done = _run_capped(["invariants", path], 2.0, 1 << 30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: {path}: line 1, column 7: 100000000 vertices exceed the "
        f"vertex budget of {MAX_VERTICES}\n"
    )


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
@pytest.mark.parametrize("name", ["out-delay", "in-delay"])
def test_delay_past_the_vertex_budget_exits_2_before_allocating(tmp_path, name):
    # The delayed graph's vertex count is checked before its chains are built.
    graph = _write(tmp_path, "one.graph", "matrix 1\n2\n")
    script = _write(tmp_path, "long.script", f"move {name}\ndelay e0 100000000\n")
    done = _run_capped(["move", "--script", script, graph], 2.0, 1 << 30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: {script}: line 1, column 1: 100000001 vertices exceed the "
        f"vertex budget of {MAX_VERTICES}\n"
    )


LIMIT = int_string_limit()
LIMIT_MESSAGE = (
    f"error: a result has an integer of more than {LIMIT} decimal digits, "
    "Python's int-string limit (sys.get_int_max_str_digits())\n"
)


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
@pytest.mark.skipif(LIMIT == 0, reason="this Python has no int-string limit")
@pytest.mark.parametrize(
    "template, where",
    [
        ("matrix 1\n{big}\n", "line 2, column 1: multiplicity"),
        ("matrix {big}\n", "line 1, column 8: vertex count"),
        ("edges 1\n0 {big} 1\n", "line 2, column 3: target vertex"),
    ],
    ids=["multiplicity", "vertex-count", "edge-target"],
)
def test_entry_past_the_int_string_limit_exits_2(tmp_path, template, where):
    path = _write(tmp_path, "long.graph", template.format(big="9" * (LIMIT + 700)))
    done = _run_capped(["invariants", path, "--json"], 2.0, 1 << 30)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == (
        f"error: {path}: {where} has {LIMIT + 700} digits, more than Python's "
        f"int-string limit of {LIMIT} (sys.get_int_max_str_digits())\n"
    )


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
@pytest.mark.skipif(LIMIT == 0, reason="this Python has no int-string limit")
@pytest.mark.parametrize(
    "argv",
    [["invariants"], ["invariants", "--json"], ["classify", "--transpose", "--json"]],
    ids=["invariants", "invariants-json", "classify"],
)
def test_result_past_the_int_string_limit_exits_2(tmp_path, argv):
    # Each entry is within the limit; det and the torsion have about twice
    # as many digits.
    big = "9" * (LIMIT - 300)
    path = _write(tmp_path, "long.graph", f"matrix 2\n{big} 1\n1 {big}\n")
    done = _run_capped([*argv, path], 2.0, 1 << 30)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", LIMIT_MESSAGE)


@pytest.mark.skipif(LIMIT == 0, reason="this Python has no int-string limit")
def test_classify_text_past_the_int_string_limit(tmp_path, capsys):
    # The text verdict needs no integer written out: the reason names the
    # bit length of each one past the limit.
    big = "9" * (LIMIT - 300)
    path = _write(tmp_path, "long.graph", f"matrix 2\n{big} 1\n1 {big}\n")
    t = franks_triple(parse_graph(f"matrix 2\n{big} 1\n1 {big}\n"))
    bits, unit_bits = t.determinant.bit_length(), t.unit_class[0].bit_length()
    code, out, err = _run(capsys, ["classify", "--transpose", path])
    assert (code, err) == (0, "")
    assert out == (
        "morita: yes\n"
        "isomorphic: yes\n"
        "levels: Isomorphic, MoritaEquivalent\n"
        "tag: franks-triple-match\n"
        "reason: group, unit class and determinant all match: "
        f"Z/an integer of {bits} bits, unit [an integer of {unit_bits} bits], "
        f"det an integer of {bits} bits\n"
    )


def test_other_value_errors_still_raise(tmp_path, monkeypatch):
    def broken(g):
        raise ValueError("not about digits")

    monkeypatch.setattr("flowinv.cli.franks_triple", broken)
    path = _write(tmp_path, "rose.graph", ROSE4)
    with pytest.raises(ValueError, match="not about digits"):
        main(["invariants", path])


# ---------------------------------------------------------------------------
# move.


def test_move_inline_expand(tmp_path, capsys):
    path = _write(tmp_path, "two.graph", TWO)
    code, out, _ = _run(capsys, ["move", "expand", "v0", path])
    assert code == 0
    assert parse_graph(out) == apply_move(parse_graph(TWO), "expand", {"vertex": 0})


def test_move_json_output(tmp_path, capsys):
    path = _write(tmp_path, "two.graph", TWO)
    code, out, _ = _run(capsys, ["move", "--json", "expand", "v0", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["applied"] == 1
    assert payload["labels"] == ["v0", "v1", "v0*"]
    assert parse_graph(payload["graph"]).incidence().to_lists() == payload["matrix"]


def test_move_script_with_class_lines(tmp_path, capsys):
    graph = _write(tmp_path, "base.graph", SPLIT_BASE)
    # The base graph has edges e0: v0->v0, e1: v0->v1, e2: v1->v0; split the
    # incoming edges of v0 and let v1 default to its single whole class.
    script = _write(
        tmp_path,
        "steps.txt",
        "# split then merge back\nmove in-split\nclass v0 1: e0\nclass v0 2: e2\n",
    )
    code, out, _ = _run(capsys, ["move", "--script", script, graph])
    assert code == 0
    assert parse_graph(out).incidence().to_lists() == [[1, 0, 1], [1, 0, 1], [0, 1, 0]]


def test_move_script_multi_step(tmp_path, capsys):
    graph = _write(tmp_path, "two.graph", TWO)
    script = _write(
        tmp_path,
        "steps.txt",
        "move expand v0\nmove contract v0 v0*\n",
    )
    code, out, _ = _run(capsys, ["move", "--script", script, graph])
    assert code == 0
    assert parse_graph(out) == parse_graph(TWO)


def test_move_rejects_unknown_move(tmp_path, capsys):
    path = _write(tmp_path, "two.graph", TWO)
    code, _, err = _run(capsys, ["move", "teleport", "v0", path])
    assert code == 2
    assert "unknown move" in err


def test_move_rejects_invalid_application(tmp_path, capsys):
    path = _write(tmp_path, "two.graph", TWO)
    code, _, err = _run(capsys, ["move", "eliminate", "v0", path])
    assert code == 2
    assert "not a source" in err


@pytest.mark.parametrize(
    "script, message",
    [
        ("move in-split\nclass v0 1 e0\n", "expected 'class <vertex> <i>: <edge>"),
        ("move out-delay\ndelay e0\n", "expected 'delay <edge> <k>'"),
        ("move in-split\nclass v0 0: e0,e1\n", "class index must be at least 1, got 0"),
        ("move in-split\nclass v0 1: e0\nclass v0 1: e1\n", "class 1 at v0 given twice"),
        ("move in-split\nclass v0 2: e0,e1\n", "must be numbered 1..2 without gaps"),
        ("move in-split v0\nclass v0 1: e0,e1\n", "in-split takes class lines, not inline"),
        ("move out-split\n", "out-split needs class lines"),
        ("move in-split\nclass v0 1: e0,e1\ndelay e0 1\n", "delay lines only follow a delay"),
        ("move expand v0\nclass v0 1: e0,e1\n", "class lines only follow in-split/out-split"),
        ("move expand v0\ndelay e0 1\n", "delay lines only follow a delay move"),
        ("move out-amalgamate\n", "out-amalgamate needs at least one block"),
        ("move contract v0\n", "move contract takes 2 to 2 arguments, got 1"),
        ("# nothing but a comment\n", "contains no moves"),
    ],
)
def test_move_script_errors_exit_2(tmp_path, capsys, script, message):
    graph = _write(tmp_path, "rose.graph", "matrix 1\n2\n")
    path = _write(tmp_path, "bad.script", script)
    code, out, err = _run(capsys, ["move", "--script", path, graph])
    assert code == 2 and not out
    assert message in err


@pytest.mark.parametrize("name", ["in-delay", "out-delay"])
def test_delay_moves_reject_inline_tokens(tmp_path, capsys, name):
    graph = _write(tmp_path, "base.graph", SPLIT_BASE)
    script = _write(tmp_path, "delay.script", f"move {name} v1 bogus\ndelay e1 2\n")
    # A script error names the script and the line; an inline one has
    # neither to name.
    message = f"{name} takes delay lines, not inline arguments\n"
    assert _run(capsys, ["move", "--script", script, graph]) == (
        2, "", f"error: {script}: line 1, column 1: {message}"
    )
    assert _run(capsys, ["move", name, "v1", graph]) == (2, "", f"error: {message}")


@pytest.mark.parametrize(
    "args, message",
    [
        (["expand"], "move expand takes 1 to 1 arguments, got 0"),
        (["contract", "v0", "v0", "v0"], "move contract takes 2 to 2 arguments, got 3"),
        (["minus", "v0", "v0"], "move minus takes 0 to 1 arguments, got 2"),
        (["out-amalgamate"], "out-amalgamate needs at least one block"),
        (["in-split"], "in-split needs class lines"),
        (["out-split", "v0"], "out-split takes class lines, not inline arguments"),
    ],
    ids=["arity-low", "arity-high", "arity-optional", "no-block", "no-class-lines", "split-tokens"],
)
def test_inline_move_errors_name_no_line(tmp_path, capsys, args, message):
    graph = _write(tmp_path, "rose.graph", "matrix 1\n2\n")
    assert _run(capsys, ["move", *args, graph]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("move eliminate", "move eliminate takes 1 to 1 arguments, got 0"),
        ("move eliminate v0 v0", "move eliminate takes 1 to 1 arguments, got 2"),
        ("move expand", "move expand takes 1 to 1 arguments, got 0"),
        ("move expand v0 v0", "move expand takes 1 to 1 arguments, got 2"),
        ("move contract v0", "move contract takes 2 to 2 arguments, got 1"),
        ("move contract v0 v0 v0", "move contract takes 2 to 2 arguments, got 3"),
        ("move shift v0", "move shift takes 2 to 2 arguments, got 1"),
        ("move shift v0 v0 v0", "move shift takes 2 to 2 arguments, got 3"),
        ("move minus v0 v1", "move minus takes 0 to 1 arguments, got 2"),
        ("move minus1 v0 v1", "move minus1 takes 0 to 1 arguments, got 2"),
    ],
)
def test_vertex_move_arity_errors_exit_2(tmp_path, capsys, line, message):
    graph = _write(tmp_path, "rose.graph", "matrix 1\n2\n")
    path = _write(tmp_path, "bad.script", line + "\n")
    code, out, err = _run(capsys, ["move", "--script", path, graph])
    assert code == 2 and not out
    assert err == f"error: {path}: line 1, column 1: {message}\n"


@pytest.mark.parametrize(
    "script, error",
    [
        ("move expand v0\n\nmove expand v9\n", "line 3, column 1: no vertex named 'v9'"),
        ("move expand v0\nmove eliminate v0\n", "line 2, column 1: vertex v0 is not a source"),
        (
            "move expand v0\nmove in-split\nclass v0 1: e0\ndelay e1 1\n",
            "line 4, column 1: delay lines only follow a delay move",
        ),
        ("move teleport\nclass v0 1: e0\n", "line 1, column 1: unknown move 'teleport'"),
        ("move in-split\nclass v9 1: e0\n", "line 1, column 1: no vertex named 'v9'"),
    ],
    ids=["graph-error", "move-error", "stray-delay-line", "unknown-move", "class-vertex"],
)
def test_script_errors_name_the_script_and_line(tmp_path, capsys, script, error):
    # A later step's error sits at its own move line, or at the stray line.
    graph = _write(tmp_path, "two.graph", TWO)
    path = _write(tmp_path, "steps.script", script)
    assert _run(capsys, ["move", "--script", path, graph]) == (2, "", f"error: {path}: {error}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--script", "S", "G", "G"], "with --script, give exactly one graph file"),
        (["G"], "usage: move <name> [args...] <graph>"),
    ],
)
def test_move_usage_errors_exit_2(tmp_path, capsys, argv, message):
    graph = _write(tmp_path, "rose.graph", "matrix 1\n2\n")
    script = _write(tmp_path, "ok.script", "move expand v0\n")
    argv = [{"G": graph, "S": script}.get(a, a) for a in argv]
    code, out, err = _run(capsys, ["move", *argv])
    assert code == 2 and not out
    assert message in err


# ---------------------------------------------------------------------------
# classify.


def test_classify_text_output(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    comp = _write(tmp_path, "comp.graph", COMPANION)
    code, out, _ = _run(capsys, ["classify", rose, comp])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "morita: yes"
    assert lines[1] == "isomorphic: yes"
    assert lines[2] == "levels: Isomorphic, MoritaEquivalent"
    assert lines[3] == "tag: franks-triple-match"


def test_classify_json_sign_gap(tmp_path, capsys):
    two = _write(tmp_path, "two.graph", "edges 1\n0 0 2\n")
    flipped = MultiGraph.from_matrix(
        [[2, 1, 0], [1, 1, 1], [0, 1, 1]]
    )  # the two-petal rose with the sign gadget attached
    other = _write(
        tmp_path,
        "flipped.graph",
        "matrix 3\n" + "\n".join(" ".join(map(str, r)) for r in flipped.incidence().to_lists()) + "\n",
    )
    code, out, _ = _run(capsys, ["classify", two, other, "--json"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["morita"] == "unknown" and verdict["isomorphic"] == "unknown"
    assert verdict["reason_tag"] == "determinant-sign-gap"
    assert verdict["witness"]["left"]["det"] == -1
    assert verdict["witness"]["right"]["det"] == 1


def test_classify_transpose(tmp_path, capsys):
    path = _write(tmp_path, "e3.graph", "matrix 3\n1 1 1\n0 0 1\n1 0 0\n")
    code, out, _ = _run(capsys, ["classify", "--transpose", path])
    assert code == 0
    assert "morita: yes" in out
    assert "isomorphic: no" in out
    assert "tag: unit-class-mismatch" in out


def test_classify_needs_two_graphs(tmp_path, capsys):
    path = _write(tmp_path, "rose.graph", ROSE4)
    code, _, err = _run(capsys, ["classify", path])
    assert code == 2
    assert "two graph files" in err


def test_classify_transpose_refuses_a_second_graph(tmp_path, capsys):
    left = _write(tmp_path, "e3.graph", "matrix 3\n1 1 1\n0 0 1\n1 0 0\n")
    right = _write(tmp_path, "rose.graph", ROSE4)
    code, out, err = _run(capsys, ["classify", "--transpose", left, right])
    assert code == 2 and not out
    assert "--transpose takes one graph file, not two" in err


# ---------------------------------------------------------------------------
# search.


def test_search_trivial(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    code, out, _ = _run(capsys, ["search", rose, rose])
    assert code == 0
    assert out.splitlines()[0] == "# 0 move(s)"


def test_search_finds_single_move(tmp_path, capsys):
    two = _write(tmp_path, "two.graph", TWO)
    expanded = apply_move(parse_graph(TWO), "expand", {"vertex": 0})
    goal = _write(
        tmp_path,
        "goal.graph",
        "matrix 3\n" + "\n".join(" ".join(map(str, r)) for r in expanded.incidence().to_lists()) + "\n",
    )
    code, out, _ = _run(capsys, ["search", two, goal])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# 1 move(s)"
    assert lines[1].startswith("move expand ")


def test_search_script_replays(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    comp = _write(tmp_path, "comp.graph", COMPANION)
    code, out, _ = _run(capsys, ["search", rose, comp, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    script = _write(tmp_path, "replay.txt", "\n".join(payload["script"]) + "\n")
    code, out, _ = _run(capsys, ["move", "--script", script, rose])
    assert code == 0
    assert is_isomorphic(parse_graph(out), parse_graph(COMPANION))


def test_search_negative_depth_exits_2(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    comp = _write(tmp_path, "comp.graph", COMPANION)
    code, out, err = _run(capsys, ["search", rose, comp, "--depth", "-1"])
    assert code == 2 and not out
    assert "max_depth" in err


def test_search_zero_max_vertices_exits_2(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    code, out, err = _run(capsys, ["search", rose, rose, "--max-vertices", "0"])
    assert code == 2 and not out
    assert "max_vertices must be positive, got 0" in err


def test_search_invariant_mismatch_is_data(tmp_path, capsys):
    rose4 = _write(tmp_path, "rose4.graph", ROSE4)
    rose3 = _write(tmp_path, "rose3.graph", "edges 1\n0 0 3\n")
    code, out, _ = _run(capsys, ["search", rose4, rose3, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["reason"] == "invariant-mismatch"
    assert list(payload["stats"]) == [
        "expanded",
        "pruned",
        "partition_capped",
        "vertex_capped",
        "entry_capped",
    ]


def test_search_bounds_exhausted_is_data(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", ROSE4)
    comp = _write(tmp_path, "comp.graph", COMPANION)
    code, out, _ = _run(capsys, ["search", rose, comp, "--depth", "0"])
    assert code == 0
    assert "not found" in out
    assert "reason: bounds-exhausted" in out


def test_search_precondition_failure_exits_2(tmp_path, capsys):
    line = _write(tmp_path, "line.graph", "matrix 2\n0 1\n0 0\n")
    rose = _write(tmp_path, "rose.graph", ROSE4)
    code, _, err = _run(capsys, ["search", line, rose])
    assert code == 2
    assert "essential" in err


# ---------------------------------------------------------------------------
# selftest.


def test_selftest_passes(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_selftest_json(capsys):
    code, out, _ = _run(capsys, ["selftest", "--json", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["seed"] == 3
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) >= 30


# ---------------------------------------------------------------------------
# Error handling.


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["check", "/nonexistent/g.graph"])
    assert code == 2
    assert err.startswith("error: ")


def test_parse_error_reports_file_and_position(tmp_path, capsys):
    path = _write(tmp_path, "bad.graph", "edges 2\n0 9 1\n")
    code, _, err = _run(capsys, ["check", path])
    assert code == 2
    assert err.startswith(f"error: {path}: line 2")
    assert "out of range" in err


def test_cli_output_matches_golden_file(tmp_path, monkeypatch, capsys):
    # Exit code, stdout and stderr of every subcommand in both output modes,
    # run where the golden file's inputs sit under their relative names.
    path = Path(__file__).parent / "data" / "cli_golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    for name, text in golden["files"].items():
        _write(tmp_path, name, text)
    assert {case["argv"][0] for case in golden["cases"]} == {
        "check", "invariants", "move", "classify", "search", "selftest"
    }
    for case in golden["cases"]:
        got = _run(capsys, case["argv"])
        assert got == (case["code"], case["stdout"], case["stderr"]), case["argv"]


@pytest.mark.parametrize(
    "argv, bad, where",
    [
        (["invariants", "B"], "B", "line 2, column 2"),
        (["classify", "G", "B", "--json"], "B", "line 2, column 2"),
        (["move", "--script", "S", "G"], "S", "line 2, column 18"),
    ],
    ids=["graph", "classify", "script"],
)
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv, bad, where):
    # The column counts characters: the script's "\u00e9" takes two bytes.
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_bytes(b"matrix 1\n1\xff\n")
    bad_script = tmp_path / "bad.script"
    bad_script.write_bytes("move expand v0\nmove minus v0 # \u00e9".encode() + b"\xff\n")
    paths = {"G": _write(tmp_path, "ok.graph", TWO), "B": str(bad_graph), "S": str(bad_script)}
    message = f"error: {paths[bad]}: {where}: byte 0xff is not UTF-8 (invalid start byte)\n"
    assert _run(capsys, [paths.get(a, a) for a in argv]) == (2, "", message)


@pytest.mark.parametrize(
    "space", ["\t", "\u00a0", "\u3000"], ids=["tab", "no-break", "ideographic"]
)
def test_script_comment_after_any_whitespace(tmp_path, capsys, space):
    graph = _write(tmp_path, "two.graph", TWO)
    script = _write(tmp_path, "s.script", f"move expand v0{space}# widen\n")
    inline = _run(capsys, ["move", "expand", "v0", graph])
    assert inline[0] == 0
    assert _run(capsys, ["move", "--script", script, graph]) == inline


def _fuzz_inputs(st):
    """Hypothesis strategies for small CLI inputs: graph files in both
    styles (n <= 4, entries 0..3, an edges block perhaps ending in a bad
    line), as bytes that sometimes hold one that is not UTF-8; positive
    matrix files, which the search admits; inline move tokens; and move
    scripts with wrong edge ids, class gaps, class index 0 and negative
    delays, each paired with the same script whose lines carry comments
    after some kind of whitespace."""
    names = st.sampled_from([*MOVES, "bogus"])
    vertex = st.sampled_from(["v0", "v1", "v2", "v3", "v4", "v0#2", "v1#3", "x", "0", "@v0"])
    edge = st.integers(0, 12).map("e{}".format) | st.sampled_from(["e1#2", "x"])

    def matrix(n, low=0):
        entries = st.lists(st.integers(low, 3), min_size=n, max_size=n)
        rows = st.lists(entries, min_size=n, max_size=n)
        return rows.map(
            lambda rows: f"matrix {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        )

    def edges(n):
        good = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
        bad = st.sampled_from([f"0 {n} 1", "-1 0 1", "0 0", "0 0 1 1", "a 0 1", "0 0 -1", "0 0 x"])
        lines = st.tuples(st.lists(good.map("{0[0]} {0[1]} {0[2]}".format), max_size=6),
                          st.lists(bad, max_size=1))
        return lines.map(lambda ls: f"edges {n}\n" + "".join(line + "\n" for line in ls[0] + ls[1]))

    def undecodable(text, at, byte):
        data = text.encode()
        return data if at < 0 else data[:at] + byte + data[at:]

    # A negative position leaves the file UTF-8.
    graph = st.builds(
        undecodable,
        st.integers(1, 4).flatmap(lambda n: matrix(n) | edges(n)),
        st.integers(-120, 40),
        st.sampled_from([b"\xff", b"\x80", b"\xe3\x80"]),
    )
    positive = st.integers(1, 4).flatmap(lambda n: matrix(n, low=1))
    tokens = st.lists(vertex | st.lists(vertex, min_size=1, max_size=3).map(",".join), max_size=3)
    class_line = st.builds(
        "class {} {}: {}".format, vertex, st.integers(-1, 3),
        st.lists(edge, min_size=1, max_size=3).map(",".join),
    )
    target = edge | vertex.map("@{}".format)
    delay_line = st.builds("delay {} {}".format, target, st.integers(-2, 3))
    step = (
        st.builds(lambda name, lines: "\n".join([f"move {name}", *lines]),
                  st.sampled_from(["in-split", "out-split"]), st.lists(class_line, max_size=4))
        | st.builds(lambda name, lines: "\n".join([f"move {name}", *lines]),
                    st.sampled_from(["in-delay", "out-delay"]), st.lists(delay_line, max_size=3))
        | st.builds(lambda name, toks: " ".join(["move", name, *toks]), names, tokens)
    )
    script = st.lists(step, min_size=1, max_size=3).map(lambda steps: "\n".join(steps) + "\n")
    note = st.sampled_from(["", " # note", "\t# note", "\u00a0# note", "\u3000# note", "\u2003#"])

    def commented(text):
        lines = text.splitlines()
        return st.lists(note, min_size=len(lines), max_size=len(lines)).map(
            lambda notes: (text, "".join(f"{line}{n}\n" for line, n in zip(lines, notes)))
        )

    return graph, positive, names, tokens, script.flatmap(commented)


def test_fuzzed_cli_inputs_exit_0_or_2(tmp_path, capsys, hypothesis_api):
    # Every input ends in exit 0 or 2 and raises nothing, a parse or move
    # error included.  Sizes stay small: a vertex count or a delay past the
    # vertex budget exits 2 at once (see the capped tests above), but one
    # within it, or a multiplicity in the millions that a split or delay
    # turns into edges, can still take seconds and hundreds of MB.
    hyp, st = hypothesis_api
    graph, positive, names, tokens, script = _fuzz_inputs(st)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(
        graph, graph, positive, positive, names, tokens, script,
        st.integers(0, 3), st.integers(1, 5),
    )
    def check(left, right, start, goal, name, toks, scripts, depth, max_vertices):
        (tmp_path / "a.graph").write_bytes(left)
        (tmp_path / "b.graph").write_bytes(right)
        a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        c = _write(tmp_path, "c.graph", start)
        d = _write(tmp_path, "d.graph", goal)
        s = _write(tmp_path, "s.script", scripts[0])
        noted = _write(tmp_path, "noted.script", scripts[1])
        search = ["--depth", str(depth), "--max-vertices", str(max_vertices)]
        for argv in (
            ["check", a],
            ["check", b, "--json"],
            ["invariants", a],
            ["invariants", b, "--json"],
            ["classify", a, b],
            ["classify", "--transpose", a, "--json"],
            ["move", name, *toks, a],
            ["move", "--script", s, a, "--json"],
            ["search", a, b, *search],
            ["search", c, d, *search, "--json"],
        ):
            assert main(argv) in (0, 2), argv
            capsys.readouterr()
        # Comments after any whitespace change nothing but the script's name
        # in an error.
        def scripted(path):
            code, out, err = _run(capsys, ["move", "--script", path, a])
            return code, out, err.replace(path, "SCRIPT")

        assert scripted(noted) == scripted(s)

    check()


def test_closed_stdout_exits_141_quietly(tmp_path):
    # A reader that stops early is not an error: no traceback, no "error:"
    # line, and the exit status of a process that SIGPIPE ended.
    graph = _write(tmp_path, "two.graph", TWO)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flowinv", "invariants", "--json", graph],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flowinv", "selftest", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] == 0


# ---------------------------------------------------------------------------
# Script parsing and rendering units.


def test_parse_move_script_structure():
    steps = parse_move_script(
        "# comment\nmove in-split\nclass v0 1: e0\nclass v0 2: e2,e3\n"
        "move out-delay\ndelay e1 2\ndelay @v9 1\nmove minus\n"
    )
    assert [s.name for s in steps] == ["in-split", "out-delay", "minus"]
    assert steps[0].class_lines[1][3] == ["e2", "e3"]
    assert steps[1].delay_lines == [(6, "e1", 2), (7, "@v9", 1)]
    assert steps[2].tokens == []


def test_parse_move_script_keeps_mid_token_hash():
    steps = parse_move_script("move expand v0#2 # the second copy\n")
    assert steps[0].tokens == ["v0#2"]
    steps = parse_move_script("move in-split\nclass v0#1 1: e0#1,e2#1\n")
    assert steps[0].class_lines == [(2, "v0#1", 1, ["e0#1", "e2#1"])]


def test_parse_move_script_errors():
    with pytest.raises(ParseError):
        parse_move_script("class v0 1: e0\n")
    with pytest.raises(ParseError):
        parse_move_script("delay e0 1\n")
    with pytest.raises(ParseError):
        parse_move_script("move\n")
    with pytest.raises(ParseError):
        parse_move_script("jump v0\n")
    with pytest.raises(ParseError):
        parse_move_script("move in-split\nclass v0 x: e0\n")
    with pytest.raises(ParseError):
        parse_move_script("move out-delay\ndelay e0 fast\n")


def test_format_move_step_round_trips():
    from flowinv.cli import apply_script_step

    g = MultiGraph(["v", "w"], [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")])
    cases = [
        ("expand", {"vertex": "v"}),
        ("in-split", {"partition": Partition({0: [["a"], ["c"]], 1: [["b"]]})}),
        ("out-split", {"partition": Partition({0: [["a"], ["b"]], 1: [["c"]]})}),
        ("out-delay", {"vector": DrinenVector.from_edges(g, "source", {"b": 1})}),
        ("in-delay", {"vector": DrinenVector.from_edges(g, "range", {"c": 2})}),
        ("minus", {"vertex": "v"}),
        ("minus1", {}),
    ]
    for kind, args in cases:
        applied = apply_move(g, kind, args)
        lines = format_move_step(g, MoveStep(kind=kind, args=args, graph=applied))
        steps = parse_move_script("\n".join(lines) + "\n")
        assert len(steps) == 1
        assert apply_script_step(g, steps[0]) == applied, kind

    shift_base = MultiGraph.from_matrix([[2, 1], [1, 1]])
    applied = apply_move(shift_base, "shift", {"v": "v0", "w": "v1"})
    lines = format_move_step(
        shift_base, MoveStep(kind="shift", args={"v": "v0", "w": "v1"}, graph=applied)
    )
    steps = parse_move_script("\n".join(lines) + "\n")
    assert apply_script_step(shift_base, steps[0]) == applied

    expanded = apply_move(g, "expand", {"vertex": "v"})
    args = {"vertex": "v", "star": "v*"}
    lines = format_move_step(expanded, MoveStep(kind="contract", args=args, graph=g))
    assert lines == ["move contract v v*"]
    assert apply_script_step(expanded, parse_move_script(lines[0] + "\n")[0]) == g

    # A vertex without edges on the delayed side is pinned by "delay @v".
    fed = MultiGraph(["s", "v"], [(0, 1, "a"), (1, 1, "b")])
    vector = DrinenVector.from_edges(fed, "range", {"b": 1}, {0: 2})
    applied = apply_move(fed, "in-delay", {"vector": vector})
    lines = format_move_step(fed, MoveStep(kind="in-delay", args={"vector": vector}, graph=applied))
    assert lines == ["move in-delay", "delay b 1", "delay @s 2"]
    steps = parse_move_script("\n".join(lines) + "\n")
    assert apply_script_step(fed, steps[0]) == applied


def test_format_amalgamate_step_round_trips():
    from flowinv.cli import apply_script_step
    from flowinv.moves import in_split

    g = MultiGraph(["v", "w"], [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")])
    split = in_split(g, Partition({0: [["a"], ["c"]], 1: [["b"]]})).graph
    blocks = [["v#1", "v#2"], ["w#1"]]
    applied = apply_move(split, "in-amalgamate", {"blocks": blocks})
    lines = format_move_step(
        split, MoveStep(kind="in-amalgamate", args={"blocks": blocks}, graph=applied)
    )
    assert lines == ["move in-amalgamate v#1,v#2 w#1"]
    steps = parse_move_script(lines[0] + "\n")
    assert apply_script_step(split, steps[0]) == g


def test_every_move_keyword_round_trips():
    # Each keyword of the move table, rendered by format_move_step, read back
    # by parse_move_script and applied by apply_script_step, gives what
    # apply_move gives.
    from flowinv.cli import apply_script_step
    from flowinv.moves import expand, in_split, out_split

    g = MultiGraph(["v", "w"], [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")])
    fed = MultiGraph(["s", "v"], [(0, 1, "x"), (1, 1, "a")])
    in_parts = Partition({0: [["a"], ["c"]], 1: [["b"]]})
    out_parts = Partition({0: [["a"], ["b"]], 1: [["c"]]})
    blocks = [["v#1", "v#2"], ["w#1"]]
    cases = {
        "eliminate": (fed, {"vertex": "s"}),
        "expand": (g, {"vertex": "v"}),
        "contract": (expand(g, "v"), {"vertex": "v", "star": "v*"}),
        "in-split": (g, {"partition": in_parts}),
        "out-split": (g, {"partition": out_parts}),
        "in-amalgamate": (in_split(g, in_parts).graph, {"blocks": blocks}),
        "out-amalgamate": (out_split(g, out_parts).graph, {"blocks": blocks}),
        "in-delay": (g, {"vector": DrinenVector.from_edges(g, "range", {"c": 2})}),
        "out-delay": (g, {"vector": DrinenVector.from_edges(g, "source", {"b": 1})}),
        "shift": (MultiGraph.from_matrix([[2, 1], [1, 1]]), {"v": "v0", "w": "v1"}),
        "minus": (g, {"vertex": "v"}),
        "minus1": (g, {}),
    }
    assert set(cases) == set(MOVES)
    for kind, (prev, args) in cases.items():
        applied = apply_move(prev, kind, args)
        lines = format_move_step(prev, MoveStep(kind=kind, args=args, graph=applied))
        steps = parse_move_script("\n".join(lines) + "\n")
        assert len(steps) == 1, kind
        assert apply_script_step(prev, steps[0]) == applied, kind
    assert format_move_step(fed, MoveStep("eliminate", {"vertex": "s"}, fed)) == [
        "move eliminate s"
    ]
    split = out_split(g, out_parts).graph
    assert format_move_step(split, MoveStep("out-amalgamate", {"blocks": blocks}, g)) == [
        "move out-amalgamate v#1,v#2 w#1"
    ]
