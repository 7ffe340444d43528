"""Only records.py opens a file for writing.

Every output goes through records.replacing, so each is replaced whole or
left as it was. A write is an open call whose mode is not a read-only
string constant, or a Path.write_text or write_bytes call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "staletodo"
WRITE_METHODS = {"write_text", "write_bytes"}
# Calls whose mode is the second argument; any other x.open(...), such as
# Path.open, takes it first.
FILE_FIRST = {"open", "io.open", "codecs.open"}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        prefix = func.value.id if isinstance(func.value, ast.Name) else ""
        return f"{prefix}.{func.attr}"
    return ""


def write_calls(source: str) -> list[int]:
    """The lines of the source's calls that write a file."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name.rpartition(".")[2] in WRITE_METHODS:
            lines.append(node.lineno)
        elif name.rpartition(".")[2] == "open":
            at = 1 if name in FILE_FIRST else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_each_kind_of_write():
    source = (
        "open(p)\n"                                 # 1 read
        "open('a.txt', 'rb')\n"                     # 2 read
        "open(p, 'w')\n"                            # 3
        "open(p, mode='ab')\n"                      # 4
        "io.open(p, 'x')\n"                         # 5
        "Path(p).open('r+')\n"                      # 6
        "Path(p).open()\n"                          # 7 read
        "p.write_text('x')\n"                       # 8
        "p.write_bytes(b'')\n"                      # 9
        "open(p, mode)\n"                           # 10 unknown, so counted
        "with open(p, encoding='utf-8') as f: pass\n"  # 11 read
        "os.open(p, os.O_WRONLY)\n"                 # 12 flags, not a mode
    )
    assert write_calls(source) == [3, 4, 5, 6, 8, 9, 10, 12]


def test_only_records_writes_files():
    writes = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = write_calls(path.read_text(encoding="utf-8"))
        if lines:
            writes[str(path.relative_to(PACKAGE))] = lines
    assert list(writes) == ["records.py"]
