"""Run one hdfactor CLI command in this process with layer spans recorded.

Usage::

    python bench/cli_entry.py SPANS_JSON <hdfactor arguments...>

Times ``import hdfactor.cli`` as the span ``cli.import``, then calls
``hdfactor.cli.main`` with the remaining arguments inside the span
``cli.main`` and writes every span to SPANS_JSON.
The exit code is the CLI's.  hdfactor must be importable (PYTHONPATH).
"""

import json
import sys
import time

from spans import Tracer, instrument


def main() -> int:
    spans_path = sys.argv[1]
    tracer = Tracer()
    start = time.perf_counter()
    import hdfactor.cli

    tracer.record("cli.import", start, time.perf_counter())
    instrument(tracer)
    with tracer.span("cli.main"):
        code = hdfactor.cli.main(sys.argv[2:])
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
