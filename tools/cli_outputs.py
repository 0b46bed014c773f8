"""Record what the wlpcert commands print, to check a change against it.

    python3 tools/cli_outputs.py > tests/data/cli_outputs.txt
    python3 tools/cli_outputs.py --compare tests/data/cli_outputs.txt

Run from anywhere inside a source checkout: the package is imported from
its `src/`. Each of the RUNS below is run in this process through
`cli.main`, on input files written to a temporary directory, and printed
as one block: the command line (input files by name), its exit code, then
its stdout and stderr lines. Timing values in `timings_ms` read `<ms>`.
--compare RECORD_FILE reads an earlier output of this script and prints,
in place of the record, only the commands whose block differs from it
(the command, then the block's lines before and after, as a diff), then
their count; a command missing from either side counts as differing.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def input_texts() -> dict:
    """Input files by name: the paper's examples 1 and 2, a 1x2 instance
    that no 0-1 point covers (x0 + x1 >= 3), random_instance(2, 2, 35),
    whose certificate the exact check refutes, and the 9-cycle."""
    from wlpcert import format_instance, random_instance

    return {
        "ex1.txt": "# example instance 1\n3 3\n1 2 0\n0 1 1\n1 0 2\n1 1 1\n",
        "ex2.txt": "3 3\n1 0 0\n1 1 0\n0 1 1\n0 1.5 0.5\n",
        "uncovered.txt": "1 2\n1 1\n3\n",
        "random_2x2_s35.txt": format_instance(random_instance(2, 2, 35)),
        "c9.txt": "p 9\n" + "".join(f"e {i} {i % 9 + 1}\n" for i in range(1, 10)),
    }


RUNS = (
    "certify --input ex1.txt --beta 0.5625",
    "certify --input ex1.txt --beta 0.5625 --json",
    "certify --input ex2.txt --max-iters 1 --json",
    "certify --input uncovered.txt",
    "certify --input uncovered.txt --json",
    "certify --input random_2x2_s35.txt --json",
    "eta --input ex1.txt",
    "eta --input ex1.txt --json",
    "brute-force --input ex1.txt",
    "brute-force --input ex1.txt --json",
    "brute-force --input uncovered.txt --json",
    "mis --graph c9.txt",
    "mis --graph c9.txt --json",
    "gen --m 3 --n 4 --seed 7",
)

_TIMINGS = re.compile(r'("timings_ms": \{)(.*?)(\})', re.S)


def _mask(out: str) -> str:
    return _TIMINGS.sub(
        lambda m: m[1] + re.sub(r": [^,\n]+", ': "<ms>"', m[2]) + m[3], out
    )


def run_block(main, command: str, workdir: Path) -> list:
    """The record lines of one command, run through main with its input
    files read from workdir."""
    argv = [
        str(workdir / token) if token.endswith(".txt") else token
        for token in command.split()
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [f"exit {code}"]
    lines += [f"  out| {line}" for line in _mask(out.getvalue()).splitlines()]
    lines += [f"  err| {line}" for line in err.getvalue().splitlines()]
    return lines


def record() -> dict:
    """{command: block lines} for every command of RUNS, in order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from wlpcert.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in input_texts().items():
            (workdir / name).write_text(text, encoding="utf-8")
        return {command: run_block(main, command, workdir) for command in RUNS}


def read_record(path) -> dict:
    """{command: block lines} from an earlier output of this script."""
    saved, lines = {}, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("$ wlpcert "):
            lines = saved[line[len("$ wlpcert "):]] = []
        else:
            lines.append(line)
    return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--compare",
        metavar="RECORD_FILE",
        help="print only the commands whose output differs from a saved record",
    )
    args = parser.parse_args(argv)
    blocks = record()
    if args.compare is None:
        for command, lines in blocks.items():
            print(f"$ wlpcert {command}")
            for line in lines:
                print(line)
        return 0
    saved = read_record(args.compare)
    commands = list(blocks) + [command for command in saved if command not in blocks]
    moved = 0
    for command in commands:
        before, after = saved.get(command, []), blocks.get(command, [])
        if before == after:
            continue
        moved += 1
        print(f"$ wlpcert {command}")
        for line in difflib.unified_diff(before, after, lineterm="", n=1):
            if not line.startswith(("---", "+++")):
                print(f"  {line}")
    print(f"{moved} of {len(commands)} commands differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
