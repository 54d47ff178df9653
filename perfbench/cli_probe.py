"""Traced stand-in for ``python -m wishmom.cli``.

    PERFBENCH_SPANS=spans.json python perfbench/cli_probe.py <wishmom arguments>

Times ``import wishmom.cli`` and ``cli.main(argv)`` in this fresh
interpreter, records spans around the library calls that ``main`` makes,
writes them to ``$PERFBENCH_SPANS`` and exits with ``main``'s exit code.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import wishmom.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

import spans  # noqa: E402


def main() -> int:
    recorder = spans.Recorder()
    recorder.install("round")
    t1 = time.perf_counter()
    try:
        code = wishmom.cli.main(sys.argv[1:])
    finally:
        main_ms = (time.perf_counter() - t1) * 1e3
        recorder.uninstall()
        dump = dict(recorder.dump(), import_ms=import_ms, main_ms=main_ms)
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
