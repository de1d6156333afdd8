"""tools/linetrace.py, the line-trace plugin, on a tiny module."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "linetrace", os.path.join(HERE, os.pardir, "tools", "linetrace.py"))
linetrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linetrace)

TINY = '''"""A module with one branch."""


def sign(x):
    # a comment is not executable
    if x < 0:
        return -1
    return 1
'''


def test_unrun_lines_of_a_tiny_module(tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text(TINY, encoding="utf-8")
    (tmp_path / "untouched.py").write_text("X = 1\n", encoding="utf-8")
    assert linetrace.executable_lines(path) == {1, 4, 6, 7, 8}
    trace = linetrace.LineTrace(tmp_path)
    spec = importlib.util.spec_from_file_location("tiny", path)
    tiny = importlib.util.module_from_spec(spec)
    trace.start()
    try:
        spec.loader.exec_module(tiny)
        assert tiny.sign(2) == 1
    finally:
        trace.stop()
    assert trace.unrun() == {"tiny.py": [7], "untouched.py": [1]}
    assert linetrace.format_report({"a.py": [1, 2, 3, 5, 7, 8]}) == ["a.py: 1-3, 5, 7-8"]
