"""`tools/src_lines.py` counts each source line once, as the first kind that fits."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""A module docstring

over three lines."""
import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """One line."""
    s = """a string
# inside it
"""
    return s
'''


def test_each_line_is_counted_once_as_its_first_kind():
    assert src_lines.count_lines(SOURCE) == {"code": 6, "docstring": 4, "comment": 1,
                                             "blank": 3}


def test_the_kinds_add_up_to_each_package_files_lines():
    root = ROOT / "src" / "kgexplain"
    counts = src_lines.count_dir(root)
    assert set(counts) == {path.name for path in root.glob("*.py")}
    for name, kinds in counts.items():
        assert sum(kinds.values()) == len((root / name).read_text(encoding="utf-8").splitlines())
