"""Every public name of the package has a caller in the program or the benchmark.

A top-level public function or class of ``src/spdtraj``, and every name that
the package's ``__init__`` exports, must be referenced somewhere in ``src/``
outside its own definition, or in ``perfbench/``, whose tracer names the
library functions it wraps as strings.  A name that only tests call is a
second path to a quantity the program computes another way, or code that no
command runs: it is retired once its checks point at the path the program
uses.  The references are matched by name, so a public name is defined in
one module only.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a caller in src/ or perfbench/
ALLOWED = {
    "main": "cli.main is the entry point of the spdtraj console script (pyproject.toml)",
}


def _trees(directory: Path) -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(directory.glob("*.py"))}


def _read(node: ast.AST, strings: bool = False) -> set:
    """The identifiers read in a subtree; with ``strings``, string constants too."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _public_api():
    """Public top-level definitions as (module, name), and the ``__init__`` exports."""
    src = _trees(ROOT / "src" / "spdtraj")
    defined = [
        (module, node.name)
        for module, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    exports = {
        alias.asname or alias.name
        for node in src["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return src, defined, exports


def test_public_names_are_defined_once():
    _, defined, _ = _public_api()
    twice = {name: n for name, n in Counter(name for _, name in defined).items() if n > 1}
    assert not twice, f"public names defined in more than one module: {twice}"


def test_every_public_name_has_a_caller_outside_tests():
    src, defined, exports = _public_api()
    # name -> the (module, top-level statement) pairs that read it; the
    # package's own exports are not a use
    readers = defaultdict(set)
    for module, tree in src.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            for name in _read(stmt):
                readers[name].add((module, getattr(stmt, "name", None)))
    bench = set().union(*(_read(t, strings=True) for t in _trees(ROOT / "perfbench").values()))
    owner = {name: module for module, name in defined}
    uncalled = sorted(
        f"{owner.get(name, '__init__')}.{name}"
        for name in {name for _, name in defined} | exports
        if not readers[name] - {(owner.get(name), name)}
        and name not in bench
        and name not in ALLOWED
    )
    assert not uncalled, f"public names that only tests call: {uncalled}"
