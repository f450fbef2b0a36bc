"""A ratchet on the number of settable values.

Every defaulted parameter and defaulted dataclass field in src/ is a
value a caller can change, and so is every CLI parameter of cli._PARAMS.
Each one multiplies the configurations that tests and the benchmark must
cover, so the count may fall but not rise, and a fall moves the bound
with it, so that no knob comes back unseen.  A derived dataclass field
declared with init=False is not settable and is not counted.
"""

import ast
from pathlib import Path

from morreylab import cli

SRC = Path(__file__).resolve().parents[1] / "src"
# 9 in src/ plus 19 CLI parameters
MAX_SETTABLE = 28


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


def test_settable_values_do_not_grow():
    src, cli_params = src_settable_values(), sum(
        len(params) for params in cli._PARAMS.values())
    assert src + cli_params == MAX_SETTABLE, (
        f"{src} settable values in src/ plus {cli_params} CLI parameters, "
        f"bound {MAX_SETTABLE}: a fall lowers the bound, a rise is refused")
