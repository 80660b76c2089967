"""README.md stays true: its Python sessions and its move script run."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

from flowinv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_sessions_pass_as_doctests():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_move_script_replays(tmp_path, capsys):
    # The "Move scripts" section shows the graph, the script and the output,
    # in that order, as its first three text blocks.
    text = README.read_text(encoding="utf-8")
    section = text.split("### Move scripts", 1)[1].split("\n## ", 1)[0]
    graph, script, output = re.findall(r"```text\n(.*?)```", section, re.S)[:3]
    graph_path = tmp_path / "readme.graph"
    graph_path.write_text(graph)
    script_path = tmp_path / "readme.script"
    script_path.write_text(script)
    code = main(["move", "--script", str(script_path), str(graph_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == output
