"""Line coverage of a source tree over an in-process pytest run, stdlib only.

Runs pytest in this process under `sys.settrace` and records every line its
main thread executes in a `.py` file under `--src` (default: this checkout's
`src/rkfw`). It then prints, per file, the lines no test ran, as
`line: source`, and a last line with the totals. A file's lines are those its
compiled code lists (`co_lines`), so blank lines, comments and function
docstrings never show. Arguments it does not know go to pytest.

Only this process is traced: a test that runs the package in a child process
(the golden digests, and `scripts/peak_rss.py` and `scripts/percall.py`) adds
nothing, so a line that only such a test reaches shows as not run.

    PYTHONPATH=src python scripts/linecov.py -q -p no:cacheprovider
    PYTHONPATH=src python scripts/linecov.py tests/test_harness.py -q
"""
import argparse
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "rkfw"


def code_lines(path):
    """Line numbers of every instruction the compiled file holds, nested code included."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a function's first instruction sits on its `def` line, which only
        # the enclosing code executes
        lines.update(line for start, _, line in code.co_lines()
                     if line and (start or code.co_name == "<module>"))
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(src, pytest_args):
    """(pytest's exit code, {file: executed line numbers}) of one pytest run."""
    import pytest

    files = {str(p): set() for p in sorted(Path(src).resolve().rglob("*.py"))}

    def on_call(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return code, files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--src", default=str(DEFAULT_SRC),
                    help="directory whose .py files are traced")
    args, pytest_args = ap.parse_known_args(argv)
    code, files = trace(args.src, pytest_args)
    total = missed = 0
    for name, seen in files.items():
        source = Path(name).read_text(encoding="utf-8").splitlines()
        lines = code_lines(Path(name))
        missing = sorted(lines - seen)
        total, missed = total + len(lines), missed + len(missing)
        print(f"{name}: {len(missing)} of {len(lines)} lines not run")
        for line in missing:
            print(f"  {line}: {source[line - 1].strip()}")
    print(f"total: {missed} of {total} lines not run; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
