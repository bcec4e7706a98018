"""One benchmark operation step: a koopmode CLI command in a fresh process.

Usage: python3 op.py STAMP SPANS OP_ID -- ARGS...

Writes to STAMP, as JSON, the wall-clock time at which `import koopmode`
finished and the process's peak RSS.  The peak is VmHWM of this process's
own address space: a child's ru_maxrss also counts the memory of the
parent it was forked from.  SPANS is "-" for an untraced run; otherwise
the tracer wraps koopmode's public functions after the import and writes
its spans to SPANS on exit.  The exit code is the CLI's.
"""
import json
import sys
import time


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> int:
    stamp, spans_path, op_id = sys.argv[1:4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    import koopmode.cli
    import_done = time.time()
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer(op_id)
        tracer.install()
    try:
        return koopmode.cli.main(argv)
    finally:
        with open(stamp, "w") as fh:
            json.dump({"import_done": import_done, "peak_rss_kib": peak_rss_kib()}, fh)
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
