"""One benchmark operation: a single ``suq2.cli.main(argv)`` call in a fresh
interpreter.

Usage: python3 worker.py <src-dir> <trace 0|1> <argv as a JSON list>

Prints one JSON record on stdout: the CLI's exit code, stdout and stderr,
CLOCK_MONOTONIC and process CPU-time stamps (import done, call start, call
end), peak RSS and, when tracing, the spans and counters recorded around
the call.
"""
import sys
import time


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss would also count the
    pages of run.py, which the worker shares between fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, trace, argv_json = sys.argv[1:4]
    sys.path.insert(0, src)
    import suq2.cli  # noqa: F401  (the import is part of the timed setup)
    t_ready, c_ready = _clock(), time.process_time_ns()

    import contextlib
    import io
    import json

    recorder = None
    if trace == "1":
        import tracer
        recorder = tracer.install(suq2)
    argv = json.loads(argv_json)
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    t_start, c_start = _clock(), time.process_time_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = suq2.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of the program is a failed operation, not ours
            import traceback
            traceback.print_exc()
            code, crashed = 1, True
    c_end, t_end = time.process_time_ns(), _clock()
    record = {
        "exit": code,
        "crashed": crashed,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-4000:],
        "t_ready": t_ready,
        "t_start": t_start,
        "t_end": t_end,
        "cpu_ready": c_ready,
        "cpu_start": c_start,
        "cpu_end": c_end,
        "maxrss_kb": _peak_rss_kb(),
        "trace": recorder.dump() if recorder is not None else None,
    }
    sys.stdout.write(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
