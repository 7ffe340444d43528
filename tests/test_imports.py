"""No module of the package imports a name it never uses.

Three kinds of import are exempt: a name that bench/tracing.py's SPANS
patches in that module (the tracer times the program by rebinding it), a
name the module lists in __all__, and any import of a package __init__,
which is a re-export.
"""

import ast
from pathlib import Path

from helpers import load_tracing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "staletodo"


def unused_imports(source: str) -> list[str]:
    """Names the source's imports bind that it never reads and does not
    list in __all__."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_check_finds_each_kind_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path as osp\nimport json.decoder\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n    from g import h\n    return b\n"
    )
    assert unused_imports(source) == ["d", "h", "json", "os", "osp"]


def test_no_module_imports_a_name_it_never_uses():
    patched = {}
    for module, name, _, _ in load_tracing().SPANS:
        patched.setdefault(module.__name__, set()).add(name)
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        names = set(unused_imports(path.read_text(encoding="utf-8"))) - patched.get(module, set())
        if names:
            unused[module] = sorted(names)
    assert unused == {}
