"""Every name a csplp module imports at module level is read somewhere in it,
and every field of a csplp record type is read somewhere in the repository.

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
