"""Lines of src/shifted_crystal that a pytest run never executes.

    PYTHONPATH=src python -m pytest -q -p tools.linetrace [pytest args]

Loaded as a pytest plugin, it installs a sys.settrace hook before the
initial conftests load, so the package's import is traced too, records
every line executed in a file under src/shifted_crystal, and at the end
lists per file the executable lines that never ran.  A line is executable
when the compiler starts an instruction on it (dis.findlinestarts over the
module's code object and every code object nested in it), so docstrings,
comments and blank lines are never listed.  Lines run only in a
subprocess, such as the CLI's `__main__` block, are listed as unrun.

Standard library only, for a repository without a coverage package.  The
trace slows the traced code several times over: all of tier-1 takes
minutes, so CI does not run it.
"""

import dis
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "shifted_crystal"


def executable_lines(path) -> set:
    """The lines on which the compiled code of the file starts an instruction."""
    path = pathlib.Path(path)
    pending, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while pending:
        code = pending.pop()
        # a module's code starts at line 0, before its first line
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class LineTrace:
    """Records the lines executed in the .py files under root, between
    start() and stop()."""

    def __init__(self, root=ROOT):
        self.root = pathlib.Path(root).resolve()
        self.hits = {}  # file name -> set of executed lines
        self._inside = {}  # code file name -> whether it lies under root
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = pathlib.Path(name).resolve().is_relative_to(self.root)
            if inside:
                self.hits.setdefault(name, set())
        if not inside:
            return None
        self.hits[name].add(frame.f_lineno)
        return self._local

    def start(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(self._previous)

    def unrun(self) -> dict:
        """Per .py file under root, relative to it, the sorted executable
        lines that never ran; files with none are left out."""
        executed = {}
        for name, lines in self.hits.items():
            executed.setdefault(pathlib.Path(name).resolve(), set()).update(lines)
        report = {}
        for path in sorted(self.root.rglob("*.py")):
            missing = sorted(executable_lines(path) - executed.get(path, set()))
            if missing:
                report[str(path.relative_to(self.root))] = missing
        return report


def format_report(report) -> list:
    """One line per file, its unrun lines as numbers and ranges."""
    out = []
    for name, lines in report.items():
        spans, first = [], lines[0]
        for prev, line in zip(lines, lines[1:] + [None]):
            if line != prev + 1:
                spans.append(str(first) if first == prev else f"{first}-{prev}")
                first = line
        out.append(f"{name}: {', '.join(spans)}")
    return out


_trace = LineTrace()


def pytest_load_initial_conftests(early_config, parser, args):
    _trace.start()


def pytest_unconfigure(config):
    _trace.stop()


def pytest_terminal_summary(terminalreporter):
    _trace.stop()
    lines = format_report(_trace.unrun())
    terminalreporter.write_sep("=", f"unrun lines under {_trace.root}")
    for line in lines or ["none"]:
        terminalreporter.write_line(line)
