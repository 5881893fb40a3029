"""The package surface: the test oracles use only public names, and the
example script runs on the public API."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracles_import_no_private_names():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    bound = set()  # local names of destackify modules and objects
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("destackify"):
            bound.update(a.asname or a.name for a in node.names)
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("destackify"):
                    bound.add((a.asname or a.name).split(".")[0])
                    private += [a.name] if "._" in a.name else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            private.append(f"{node.value.id}.{node.attr}")
    assert bound and private == []


# Public names that only the package's users call: tests build inputs
# and expected values with them.
USER_ONLY = {
    "IntMatrix.identity": "expected matrices in tests",
    "StackyFan.subfan": "the subfans that `restrict_steps` takes",
}


def _definitions(tree):
    """(qualified name, node) of each module-level function and each
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _name_uses(node):
    uses = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses.append(n.id)
        elif isinstance(n, ast.Attribute):
            uses.append(n.attr)
        elif isinstance(n, ast.alias):
            uses.append(n.name)
    return uses


def test_no_dead_names():
    # A name counts as used when the package, its scripts or its
    # benchmark name it outside its own definition.
    src = sorted((ROOT / "src" / "destackify").glob("*.py"))
    users = src + sorted((ROOT / "scripts").glob("*.py")) + \
        sorted((ROOT / "perfbench").glob("*.py"))
    uses = Counter()
    for path in users:
        uses.update(_name_uses(ast.parse(path.read_text())))
    dead = set()
    for path in src:
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if uses[name] == _name_uses(node).count(name):
                dead.add(qualname)
    assert dead == set(USER_ONLY)


def test_run_examples(capsys):
    spec = importlib.util.spec_from_file_location(
        "run_examples", ROOT / "scripts" / "run_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--fan-dir", str(ROOT / "fans")]) == 0
    assert "== klein ==" in capsys.readouterr().out
