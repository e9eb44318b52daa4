"""Traced launcher for one CLI call: ``cli_launch.py SPAN_FILE ARGS...``.

Behaves like ``python -m cspaces.cli ARGS...`` (same output and exit
code) but times the import of ``cspaces.cli``, records spans of the
call, and writes them with the in-process time to SPAN_FILE.
"""
import time

STARTED = time.process_time()

import sys  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.process_time()
    import cspaces.cli
    import_s = time.process_time() - t0
    from spans import Recorder
    recorder = Recorder()
    recorder.install()
    try:
        code = cspaces.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(span_file, {"import_s": import_s,
                                  "in_process_s": time.process_time() - STARTED})
    return code


if __name__ == "__main__":
    sys.exit(main())
