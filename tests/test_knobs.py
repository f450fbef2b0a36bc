"""A ratchet on the number of settable values.

Every defaulted parameter and defaulted dataclass field in src/ is a
value a caller can change, and so is every CLI parameter of cli._PARAMS.
Each one multiplies the configurations that tests and the benchmark must
cover, so the count may fall but not rise, and a fall moves the bound
with it, so that no knob comes back unseen.  A derived dataclass field
declared with init=False is not settable and is not counted.

src_line_tally counts the lines of src/, with and without docstrings;
the line count has no bound.  `PYTHONPATH=src python tests/test_knobs.py`
prints both line counts and the settable values.
"""

import ast
from pathlib import Path

from morreylab import cli

SRC = Path(__file__).resolve().parents[1] / "src"
# 8 in src/ plus 19 CLI parameters
MAX_SETTABLE = 27


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in value.keywords)


def src_settable_values() -> int:
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign)
                             and st.value is not None
                             and not _init_false(st.value)
                             for st in node.body)
    return count


def cli_settable_values() -> int:
    return sum(len(params) for params in cli._PARAMS.values())


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def src_line_tally() -> tuple[int, int]:
    """Lines of src/**/*.py: all of them, and those outside the module,
    class and function docstrings."""
    total = outside = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        docstring_lines = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, _DOCUMENTED)
                    and ast.get_docstring(node, clean=False) is not None):
                doc = node.body[0]
                docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
        n = len(text.splitlines())
        total += n
        outside += n - len(docstring_lines)
    return total, outside


def test_settable_values_do_not_grow():
    src, cli_params = src_settable_values(), cli_settable_values()
    assert src + cli_params == MAX_SETTABLE, (
        f"{src} settable values in src/ plus {cli_params} CLI parameters, "
        f"bound {MAX_SETTABLE}: a fall lowers the bound, a rise is refused")


if __name__ == "__main__":
    total, outside = src_line_tally()
    src, cli_params = src_settable_values(), cli_settable_values()
    print(f"src/ lines: {total:,}, {outside:,} outside docstrings")
    print(f"settable values: {src} in src/ plus {cli_params} CLI parameters "
          f"= {src + cli_params}")
