"""Every name a csplp module imports at module level is read somewhere in it,
every field of a csplp record type is read somewhere in the repository, and
every top-level function and class of csplp has a caller in the program.

A name or field left behind when the code that used it moves away would
otherwise stay unnoticed; `__init__.py` re-exports and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "csplp"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_import(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def _record_classes(tree):
    """Dataclasses and NamedTuples defined at module level."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
                isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
            yield node


def test_every_record_field_is_read():
    """Every field of a csplp dataclass or NamedTuple is read as an attribute
    somewhere in src/, tests/ or perfbench/.

    Fields are matched by name alone, so a dead field whose name another
    class also reads (say, an `epsilon` next to a live `epsilon` elsewhere)
    passes unnoticed.
    """
    read = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in _record_classes(ast.parse(path.read_text())):
            unread += [f"{path.stem}.{cls.name}.{item.target.id}" for item in cls.body
                       if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert unread == []


def test_every_top_level_name_has_a_program_caller():
    """Every top-level function and class in src/csplp is read by the program.

    A name counts as read when src/ loads it by name outside its own
    definition, when src/ or perfbench/ reads it as `module.name` or
    imports it from its module, when a string constant in src/ or
    perfbench/ is the name or `module.name` (the tracing tables and the
    `getattr` lookups of the CLI), or when `__all__` exports it.  Tests do
    not count: a name only they call belongs in tests/.

    Names are matched by name alone, so a dead function passes unnoticed
    when another module loads a different object of the same name, and an
    attribute read `module.name` counts for whatever object the module holds.
    """
    read = set()
    for top in ("src", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    read.add(f"{node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("csplp."):
                    read.update(f"{node.module[6:]}.{a.name}" for a in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            read.update(node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load) and node.id != own)
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                read.update(ast.literal_eval(stmt.value))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, own))
    assert [f"{m}.{name}" for m, name in defined
            if name not in read and f"{m}.{name}" not in read] == []
