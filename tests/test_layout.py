"""Rules of the source tree and its docs that no behavioural test checks."""

import ast
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "wordeq").glob("*.py") if p.name != "__init__.py")

# Called by a framework, not by name from program code: argparse calls a
# parser's ``error`` on a usage error.
CALLED_BY_FRAMEWORK = {"cli._Parser.error"}


def _definitions(tree: ast.Module, prefix: str = ""):
    """Qualified names (``Class.method``) and bare names of the functions and
    classes defined in the tree, dunders left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield prefix + name, name
            yield from _definitions(node, f"{prefix}{name}.")
        else:
            yield from _definitions(node, prefix)


def _references(tree: ast.Module):
    """Every name the tree can reach a definition by: a name, an attribute,
    an imported name or a string constant (the tracer names its targets by
    string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _bindings(tree: ast.Module):
    """Every name the tree binds itself: a def, a class, an argument, or an
    assignment or attribute-store target."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def test_no_library_helper_that_only_tests_call():
    # A name a file binds itself refers to that binding, not to a library
    # definition of the same name; a library file's own definitions still
    # count as referenced by it.
    program = LIBRARY + sorted((ROOT / "benchmarks").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))
    referenced = set()
    for path in program:
        tree = ast.parse(path.read_text(), str(path))
        own = {name for _, name in _definitions(tree)} if path in LIBRARY else set()
        referenced.update(set(_references(tree)) - (set(_bindings(tree)) - own))
    unused = {
        f"{path.stem}.{qualified}"
        for path in LIBRARY
        for qualified, name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in referenced
    } - CALLED_BY_FRAMEWORK
    assert not unused, f"defined in src/wordeq but referenced only from tests, if at all: {sorted(unused)}"


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    want = [line.partition("  # ")[2] for line in block.splitlines() if line.startswith("print(")]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want
