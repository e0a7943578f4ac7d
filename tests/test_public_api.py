"""Every exported function has a caller outside the unit tests.

A function in ``thermogeom.__all__`` must be called somewhere in the
package (outside its own definition and the package ``__init__``), by the
acceptance suite, or be one the benchmark tracer wraps by name.  Anything
else is public API that nothing uses.
"""
import ast
import inspect
from pathlib import Path

import thermogeom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(thermogeom.__file__).resolve().parent


class _Calls(ast.NodeVisitor):
    """Names called in a module, except calls a function makes to itself."""

    def __init__(self):
        self.names = set()
        self._enclosing = []

    def visit_FunctionDef(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is not None and name not in self._enclosing:
            self.names.add(name)
        self.generic_visit(node)


def _called(path: Path) -> set[str]:
    calls = _Calls()
    calls.visit(ast.parse(path.read_text(encoding="utf-8")))
    return calls.names


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["FUNCTIONS"]):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("perfbench/tracer.py defines no FUNCTIONS")


def test_every_exported_function_is_called():
    used = _traced() | _called(ROOT / "tests" / "test_acceptance.py")
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _called(path)
    exported = {name for name in thermogeom.__all__
                if inspect.isfunction(getattr(thermogeom, name))}
    assert sorted(exported - used) == []
