"""Run one benchmark job in this fresh interpreter.

    python3 perfbench/job.py RECORD JOB_ID TRACE cli ARG...
    python3 perfbench/job.py RECORD JOB_ID TRACE api FUNCTION INT...

`cli` runs the agroups command line on ARG...; `api` calls
`agroups.census.FUNCTION(*INT)` and prints the returned inventory's
`to_json()` as sorted JSON. Set-up ends when control reaches the engine: the
CLI command handler, or the API function. The monotonic clock reading at that
moment (the same clock in every process) goes to RECORD, in marshal format,
when the job ends, with the process's own peak RSS (VmHWM) and, when TRACE
is 1, the spans.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class _Entry:
    """Marks the end of set-up: the moment control first reaches the engine."""

    setup_end_ns = None

    def enter(self, fn):
        def entered(*args, **kwargs):
            self.setup_end_ns = time.monotonic_ns()
            return fn(*args, **kwargs)

        return entered


def _run_cli(entry, tracer, argv) -> int:
    from agroups import cli

    if tracer is not None:
        tracer.install()
    build_parser = cli._build_parser

    def build_marking_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def parse_and_mark(args=None, namespace=None):
            ns = parse_args(args, namespace)
            handler = ns.run if tracer is None else tracer.span(f"cli.{ns.command}", ns.run)
            ns.run = entry.enter(handler)
            return ns

        parser.parse_args = parse_and_mark
        return parser

    cli._build_parser = build_marking_parser
    return cli.main(argv)


def _run_api(entry, tracer, name, int_args) -> int:
    from agroups import census

    if tracer is not None:
        tracer.install()  # makes census.<name> a span
    result = entry.enter(getattr(census, name))(*(int(a) for a in int_args))
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def _peak_rss_kb() -> int:
    """This process's resident-set high-water mark, in KiB, since its exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, job_id, trace, kind, *rest = sys.argv[1:]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(job_id)
    entry = _Entry()
    if kind == "cli":
        code = _run_cli(entry, tracer, rest)
    elif kind == "api":
        code = _run_api(entry, tracer, rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    sys.stdout.flush()
    record = {"setup_end_ns": entry.setup_end_ns, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        record.update(tracer.to_record())
    # marshal: a traced job can hold 10^5 spans, and JSON would take seconds
    with open(record_path, "wb") as handle:
        marshal.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
