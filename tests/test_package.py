"""The package surface: the test oracles use only public names, and the
example script runs on the public API."""

import ast
import importlib.util
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


def test_run_examples(capsys):
    spec = importlib.util.spec_from_file_location(
        "run_examples", ROOT / "scripts" / "run_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--fan-dir", str(ROOT / "fans")]) == 0
    assert "== klein ==" in capsys.readouterr().out
