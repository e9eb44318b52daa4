"""Report the statement lines of ``src/cspaces`` that no test reaches.

Runs pytest in this process under a ``sys.settrace`` line tracer (the
standard library only, no coverage package), then prints, module by
module, how many of its executable lines ran and which never did.  The
executable lines of a module are those on which its compiled code
objects start an instruction; a function counts as reached on its
``def`` line when it is called.  Code run in a child process (a CLI
subprocess) is not seen.

    PYTHONPATH=src python tools/unreached.py            # all of tests/
    PYTHONPATH=src python tools/unreached.py tests/test_jsonio.py -x

Arguments are passed to pytest (default: ``tests -q``).  The exit status
is pytest's.  Tracing makes the suite several times slower.
"""
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cspaces"


def executable_lines(path: Path) -> set:
    """The lines on which the module's code objects start an instruction."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as ranges: "3-5, 9"."""
    out, run = [], []
    for n in sorted(lines):
        if run and n == run[-1] + 1:
            run.append(n)
            continue
        if run:
            out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]))
        run = [n]
    if run:
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]))
    return ", ".join(out)


def main(argv) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            return None
        seen[name].add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "-q"])
    finally:
        sys.settrace(None)
    total = missed = 0
    print("\nunreached statement lines of src/cspaces:")
    for name, path in files.items():
        lines = executable_lines(path)
        gone = lines - seen[name]
        total, missed = total + len(lines), missed + len(gone)
        print(f"  {path.stem:<14}{len(gone):>4} of {len(lines):>4}"
              + (f": {spans(gone)}" if gone else ""))
    print(f"  {'all':<14}{missed:>4} of {total:>4}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
