"""Run one permacheck CLI command with its layers traced.

Usage: python -X importtime bench/traced_cli.py SPANS_JSON SPAWN_T0 -- CLI ARGS...

SPAWN_T0 is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so the gap to the
first statement here is the interpreter's start-up time.  The spans and
start-up figures are written to SPANS_JSON when the command returns; the
exit code is the CLI's.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spans_path, spawn_t0, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON SPAWN_T0 -- CLI ARGS...")
    t = time.perf_counter()
    import permacheck.cli as cli
    import_s = time.perf_counter() - t
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.parse_and_dispatch(argv)
    finally:
        sys.stdout.flush()
        record = {"interp_s": _STARTED - float(spawn_t0), "import_s": import_s,
                  "spans": tracer.spans}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
