"""Run one ``qfca`` command and report its peak memory.

Usage: ``python cli_probe.py [--trace TRACE_FILE] SUBCOMMAND ARGS...``.
Behaves like ``python -m qfca.cli SUBCOMMAND ARGS...`` (same stdout and exit
code) and writes ``peak_rss_kb N`` as the last line of stderr: the peak
resident set of this process's own memory (``VmHWM``).  ``ru_maxrss`` would
not do: Linux counts in it the parent's memory from before the child's exec,
so every command would read at least as much as the benchmark's worker.
With ``--trace`` it also installs the tracing wrappers and writes the
tracer's spans and counters to TRACE_FILE as JSON.
"""

import json
import sys

import qfca.cli


def peak_rss_kb() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    argv = sys.argv[1:]
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    tracer = None
    if trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        code = qfca.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        sys.stdout.flush()
        peak = peak_rss_kb()
        if peak is not None:
            print(f"peak_rss_kb {peak}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
