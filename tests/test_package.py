"""The package surface: every export and every public name in src/ is used, and every demo and README snippet runs."""

import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_dist_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparse_dist_lab"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SNIPPETS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)


def _names_used(tree: ast.AST, skip_def: str | None = None) -> set[str]:
    """Names and attributes read anywhere in tree, outside a def or class named skip_def."""
    used = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip_def:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return used


def test_every_export_is_used_in_src_or_demos():
    # A name earns its place in __all__ by a use in the package (outside its
    # own definition) or in a demo; anything else belongs in its module only.
    modules = [ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.name != "__init__.py"]
    demo_uses = set().union(*(_names_used(ast.parse(path.read_text())) for path in DEMOS))
    unused = [
        name
        for name in sparse_dist_lab.__all__
        if name not in demo_uses and not any(name in _names_used(tree, skip_def=name) for tree in modules)
    ]
    assert unused == []


def _public_names(tree: ast.Module) -> set[str]:
    """The public functions, classes and constants a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_src_name_is_used():
    # Each public top-level name in src/ is read outside its own definition
    # by the package, a demo or the acceptance tests; a name only the other
    # tests read belongs with them (tests/oracles.py) or nowhere. The
    # package root's re-exports are not uses.
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.name != "__init__.py"}
    outside = [*DEMOS, ROOT / "tests" / "test_acceptance.py"]
    readers = [*modules.values(), *(ast.parse(path.read_text()) for path in outside)]
    unused = [
        f"{module}.{name}"
        for module, tree in sorted(modules.items())
        for name in sorted(_public_names(tree))
        if not any(name in _names_used(reader, skip_def=name) for reader in readers)
    ]
    assert unused == []


def _run_python(args: list[str], **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a demo's temporary files go under tmp_path, and none may be left there
    done = _run_python([str(demo)], TMPDIR=str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []


_DEMO_STDOUT_SHA256 = {
    "hashing_demo": "151e0413218f834f91dfeb3b809649651380dd30c34e95271d59027dbcbdaa20",
    "hadamard_response_demo": "c1a4f3a478a5fa122edc840ee694862bad219da23a4443799f875b1506bd36ae",
    "lower_bounds_demo": "c338b4d179d81ed1fc64e8cfa764345b18a3291a365efb35a22713ee16ca4c8f",
}


@pytest.mark.parametrize("name", sorted(_DEMO_STDOUT_SHA256))
def test_demo_stdout_bytes_are_pinned(name):
    done = _run_python([str(ROOT / "demos" / f"{name}.py")])
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == _DEMO_STDOUT_SHA256[name]


def test_trend_demo_writes_to_the_directory_it_is_given(tmp_path):
    done = _run_python([str(ROOT / "demos" / "trend_figure_demo.py"), str(tmp_path / "out")])
    assert done.returncode == 0, done.stderr
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["results.csv", "summary.csv", "summary.json"]


@pytest.mark.parametrize("snippet", README_SNIPPETS, ids=[f"block{i}" for i in range(len(README_SNIPPETS))])
def test_readme_snippet_runs(snippet):
    done = _run_python(["-c", snippet])
    assert done.returncode == 0, done.stderr
