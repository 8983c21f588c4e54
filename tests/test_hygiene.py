"""Static checks on the package source, standard library ``ast`` only.

* Every import in ``src/ontoenrich`` is used.
* Every public top-level function and class in ``src/ontoenrich`` is used
  outside its own definition by the package, the scripts, the benchmark or
  the acceptance tests. Methods are out of scope: without types an
  attribute name cannot be tied to one class.
* Every private top-level function in ``src/ontoenrich`` is used by the
  package outside its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ontoenrich"
USERS = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree: ast.AST) -> set[str]:
    """Names, attribute names and imported names used anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = set()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= referenced_names(node)
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def unused_definitions(is_checked, users) -> list[str]:
    """Top-level definitions in the package that no user file references
    outside the definition itself."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if is_checked(node):
                defined[node.name] = path.name
    used = set()
    for path in users:
        for node in parse(path).body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)


def test_public_definitions_have_users():
    def public(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")

    assert unused_definitions(public, USERS) == []


def test_private_functions_have_callers():
    def private(node):
        return isinstance(node, ast.FunctionDef) and node.name.startswith("_")

    assert unused_definitions(private, sorted(PACKAGE.glob("*.py"))) == []
