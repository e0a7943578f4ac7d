"""Every public function and class has a user outside the unit tests.

A public module-level function of the package (one whose name has no
leading underscore) must be used somewhere in the package outside its own
definition and the package ``__init__``, by the acceptance suite, or be
one the benchmark tracer wraps by name.  A public class must be used in
the package outside its own body and ``__init__``, by the acceptance
suite, or by the benchmark's scripts, and so must each public method and
property of a public class, as an attribute.  A use is a call or any
other load of the name: the ``cli.cmd_*`` functions are reached only
through the dispatch table.  Anything else is public API that nothing
uses.

A record that checks its fields is a frozen dataclass, whose
``__post_init__`` runs on every construction; every other record is a
NamedTuple.
"""
import ast
from pathlib import Path

import thermogeom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(thermogeom.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


class _Uses(ast.NodeVisitor):
    """Names loaded in a module, and among them those loaded as an
    attribute, except a function's or a class's loads of itself."""

    def __init__(self):
        self.names = set()
        self.attributes = set()
        self._enclosing = []

    def visit_FunctionDef(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _use(self, name):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._enclosing:
            self.names.add(node.attr)
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _uses(path: Path) -> _Uses:
    uses = _Uses()
    uses.visit(_parse(path))
    return uses


def _used(path: Path) -> set[str]:
    return _uses(path).names


def _traced() -> set[str]:
    for node in _parse(ROOT / "perfbench" / "tracer.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["FUNCTIONS"]):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("perfbench/tracer.py defines no FUNCTIONS")


def _public(path: Path, kinds) -> set[str]:
    return {node.name for node in _parse(path).body
            if isinstance(node, kinds) and not node.name.startswith("_")}


def _unused(kinds, used: set[str]) -> list[str]:
    for path in MODULES:
        used |= _used(path)
    return sorted(f"{path.stem}.{name}" for path in MODULES
                  for name in _public(path, kinds) - used)


def test_every_public_function_is_used():
    used = _traced() | _used(ROOT / "tests" / "test_acceptance.py")
    assert _unused((ast.FunctionDef, ast.AsyncFunctionDef), used) == []


def _users() -> list[Path]:
    """The acceptance suite and the benchmark's scripts."""
    return [ROOT / "tests" / "test_acceptance.py",
            *(ROOT / "perfbench").glob("*.py")]


def test_every_public_class_is_used():
    used = set().union(*map(_used, _users()))
    assert _unused(ast.ClassDef, used) == []


def test_every_public_method_is_used():
    # an attribute of that name loaded anywhere counts: a name alone
    # cannot tell whose attribute a load reads
    used = set().union(*(_uses(path).attributes
                         for path in [*MODULES, *_users()]))
    unused = [f"{path.stem}.{cls.name}.{node.name}" for path in MODULES
              for cls in _parse(path).body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return "dataclass" in (getattr(decorator, "id", None),
                           getattr(decorator, "attr", None))


def test_every_dataclass_checks_its_fields():
    # a NamedTuple's _make and _replace would skip the check
    unchecked = [f"{path.stem}.{node.name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(_parse(path))
                 if isinstance(node, ast.ClassDef)
                 and any(map(_is_dataclass, node.decorator_list))
                 and "__post_init__" not in {
                     item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)}]
    assert unchecked == []
