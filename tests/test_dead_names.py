"""Every name the package defines is named somewhere in the program.

A module-level function, class or constant of `src/peer_lab`, and every
method or property of its classes (dunders aside), must be named outside
its own definition somewhere in `src/` or `perfbench/`: read as a name or
an attribute, imported, or spelled inside a string constant other than a
docstring. Strings count because `perfbench/spans.py` names the functions
it times as strings ("Tape.backward"), and `peer_lab.__all__` lists the
package's exports as strings. A name only tests reach fails; its `def`
line may carry a `# test support: <reason>` comment, as `# noqa: F401`
exempts an import.

The check goes by spelling, not by binding: a dead name spelled like a
live one still passes. A `Tensor.shape` property would pass on the many
`.data.shape` reads, and a module function `scale` on `bn.scale`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "peer_lab").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = re.compile(r"#\s*test support:\s*\S")
WORD = re.compile(r"[A-Za-z_]\w*")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes of every module, class and function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def defined_names(source: str) -> dict[str, int]:
    """{name: line} of the module-level functions, classes and constants of
    `source` and its classes' methods and properties, less the exempt ones."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = {}

    def add(name: str, lineno: int) -> None:
        if not _dunder(name) and not EXEMPT.search(lines[lineno - 1]):
            found[name] = lineno

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    add(target.id, node.lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item.name, item.lineno)
    return found


def named_names(source: str) -> set[str]:
    """Every name `source` reads, imports or spells in a non-docstring string."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(WORD.findall(node.value))
    return out


def dead_names(defining: dict[str, str], program: dict[str, str]) -> list[str]:
    """"file:line name" for each name a `defining` source defines that no
    `program` source names; both map a label to the source text."""
    named = set().union(*(named_names(source) for source in program.values()))
    return [
        f"{label}:{line} {name}"
        for label, source in defining.items()
        for name, line in defined_names(source).items()
        if name not in named
    ]


def test_every_package_name_is_named_in_the_program():
    program = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PROGRAM}
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE}
    assert dead_names(package, program) == []


def test_the_check_finds_a_dead_name():
    defining = (
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def live(x):\n"
        '    """helper, not orphan"""\n'
        "    return x + LIMIT\n"
        "def orphan():\n"
        "    pass\n"
        "def kept():  # test support: tests build gradients with it\n"
        "    pass\n"
        "def named_in_a_string():\n"
        "    pass\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return live(1)\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
    )
    user = 'TARGETS = ("m", "Box.named_in_a_string")\nBox().read()\n'
    assert dead_names({"m.py": defining}, {"m.py": defining, "user.py": user}) == [
        "m.py:2 UNUSED",
        "m.py:6 orphan",
        "m.py:18 size",
    ]
