"""Run the wlpcert CLI with the span collector installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <wlpcert arguments...>

Behaves like `python3 -m wlpcert.cli <arguments...>` (same output and
exit code) and also writes the recorded spans to SPANS_JSON.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from wlpcert import cli

    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        index = tracer.open("cli.main")
        try:
            code = cli.main(argv)
        finally:
            tracer.close(index)
    finally:
        spans.restore(saved)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
