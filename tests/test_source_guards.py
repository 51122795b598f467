"""Source guards: the log-space product and the floor slack are each written once."""
import ast
from pathlib import Path

import minfinity

SRC = Path(minfinity.__file__).resolve().parent


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _is_log_abs(node) -> bool:
    return (isinstance(node, ast.Call) and ast.unparse(node.func) in ("log", "math.log")
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) == "abs")


def test_log_space_product_is_written_once():
    # u = sign(a)*exp(log|a| + b) lives in augment._terms alone
    assert [name for name, node in _nodes() if _is_log_abs(node)] == ["augment.py"]


def test_floor_slack_is_written_once():
    # fields.FLOOR_SLACK; every floor test reads that name
    found = [name for name, node in _nodes()
             if isinstance(node, ast.Constant) and node.value == 1e-9]
    assert found == ["fields.py"]
