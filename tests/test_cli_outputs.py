"""tools/cli_outputs.py, the record of what the commands print."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
RECORD = Path(__file__).resolve().parent / "data" / "cli_outputs.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_record(capsys):
    # Every command of the tool's RUNS prints what tests/data/cli_outputs.txt
    # records, exit code and stderr included, timings masked. A change that
    # moves a report regenerates the file and lists the moved commands in
    # CHANGES.md; on failure the message shows them.
    assert _tool().main(["--compare", str(RECORD)]) == 0
    out = capsys.readouterr().out
    assert out == "0 of 14 commands differ\n", out


def test_compare_prints_only_moved_commands(capsys, tmp_path):
    tool = _tool()
    assert tool.main([]) == 0
    saved = capsys.readouterr().out

    # Edit one saved line and drop the last command: each is printed, the
    # edited line as a diff, the missing command with every line added.
    lines = saved.splitlines(keepends=True)
    edited = lines.index("  out| value: 2  optima: 3\n")
    lines[edited] = "  out| value: 3  optima: 3\n"
    gen = lines.index("$ wlpcert gen --m 3 --n 4 --seed 7\n")
    path = tmp_path / "before.txt"
    path.write_text("".join(lines[:gen]), encoding="utf-8")
    assert tool.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "$ wlpcert brute-force --input ex1.txt",
        "  @@ -1,2 +1,2 @@",
        "   exit 0",
        "  -  out| value: 3  optima: 3",
        "  +  out| value: 2  optima: 3",
    ]
    assert out[5] == "$ wlpcert gen --m 3 --n 4 --seed 7"
    assert out[6:8] == ["  @@ -0,0 +1,6 @@", "  +exit 0"]
    assert out[-1] == "2 of 14 commands differ"
