import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hurwitz
from hurwitz import cli
from hurwitz.cli import main

MODULES = [hurwitz] + [
    importlib.import_module(f"hurwitz.{info.name}")
    for info in pkgutil.iter_modules(hurwitz.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


SRC = Path(hurwitz.__file__).parent
TRACER = SRC.parents[1] / "perfbench" / "tracer.py"
# Referenced from outside the scanned code.
EXEMPT = {
    "_Parser.error",  # argparse calls it on a usage error
    "__getattr__",  # the import system calls it for a name the package lacks
}


def _defined_names(tree):
    """Top-level functions and classes, and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_defined_name_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in [*trees.values(), ast.parse(TRACER.read_text())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = [
        f"{path.name}:{label}"
        for path, tree in trees.items()
        for label, name in _defined_names(tree)
        if name not in used and label not in EXEMPT
    ]
    assert not unreferenced, unreferenced


def test_readme_quick_start_runs():
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "monotone_closed_form" in block
    exec(compile(block, "README.md", "exec"), {})


def test_every_cache_is_hit_within_a_request():
    # Each CLI request is its own process, so a cache earns its keep only
    # if one request hits it: clear them all before each request.
    caches = {
        f"{module.__name__}.{name}": obj
        for module in MODULES
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert caches
    hits = Counter()
    for kind in ("simple", "monotone"):
        for obj in caches.values():
            obj.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["checks", "--kind", kind, "--d-max", "6"]) == 0
        for name, obj in caches.items():
            hits[name] += obj.cache_info().hits
    unhit = sorted(name for name in caches if not hits[name])
    assert not unhit, unhit


def test_guards_live_only_in_the_cli():
    # Caps and their override are command-line policy; the library is unguarded.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        text = path.read_text()
        if "--force" in text:
            offenders.append(f"{path.name}: --force")
        offenders += [
            f"{path.name}:{node.lineno}: parameter force"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.arg) and node.arg == "force"
        ]
    assert not offenders, offenders


def test_one_refusal_rule():
    # Only cli._limit reads force or writes "(use --force)"; every guard
    # calls it rather than branching on the override itself.
    source = (SRC / "cli.py").read_text()
    functions = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
    limit = next(n for n in functions if n.name == "_limit")
    assert source.count("(use --force)") == 1
    assert "(use --force)" in ast.get_source_segment(source, limit)
    offenders = []
    for function in functions:
        for node in ast.walk(function):
            tests = [getattr(node, "test", None), *getattr(node, "ifs", [])]
            tests += node.values if isinstance(node, ast.BoolOp) else []
            names = {
                getattr(sub, "id", getattr(sub, "attr", None))
                for test in tests if test is not None for sub in ast.walk(test)
            }
            if "force" in names and function is not limit:
                offenders.append(f"{function.name}:{node.lineno}")
    assert not offenders, offenders


def test_readme_states_every_guard_cap():
    # README's guard paragraph gives each cap in its own notation; a cap
    # added to cli.py needs a form here, and a changed value a changed README.
    mantissa, exponent = cli.GENUS_MAX_B_SQUARES, 0
    while mantissa % 10 == 0:
        mantissa, exponent = mantissa // 10, exponent + 1
    forms = {
        "ENGINE_MAX_DEGREE": f"`|mu| <= {cli.ENGINE_MAX_DEGREE}`",
        "ORACLE_MAX_BRANCH_POINTS": f"`b <= {cli.ORACLE_MAX_BRANCH_POINTS}`",
        "GENUS_MAX_B_SQUARES": f"`{mantissa}*10^{exponent}`",
    }
    assert {name for name in vars(cli) if "_MAX_" in name} == set(forms)
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split("Guard limits", 1)[1].split("**Start-up.**", 1)[0]
    assert [form for form in forms.values() if form not in section] == []


def test_branch_points_have_one_home():
    # b = 2g - 2 + d + l is worked out only by partitions.branch_points.
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "partitions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp):
                attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if {"size", "length"} <= attrs:
                    offenders.add(f"{path.name}:{node.lineno}")
    assert not offenders, sorted(offenders)


def test_only_the_cli_renders():
    # Exact values become text in cli.py alone: no other module spells out
    # "p/q" from a rational's parts or loads an output format.
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if {"numerator", "denominator"} <= attrs:
                    offenders.add(f"{path.name}:{node.lineno}: p/q f-string")
            imported = set()
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module}
            for name in sorted(imported & {"csv", "json"}):
                offenders.add(f"{path.name}:{node.lineno}: import {name}")
    assert not offenders, sorted(offenders)


def test_package_exports_what_the_readme_documents():
    # The quick start's import line and the names its prose puts in
    # backticks are the package's exports, no more and no fewer.
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    fences = section.split("```")
    block = fences[1].removeprefix("python\n")
    documented = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "hurwitz"
        for alias in node.names
    }
    documented.update(re.findall(r"`([A-Za-z_]\w*)`", "".join(fences[::2])))
    assert set(hurwitz.__all__) - {"__version__"} == documented


def test_cli_import_loads_no_module_a_request_may_not_need():
    # Every request is a fresh process that would pay these imports:
    # dataclasses pulls in inspect, json loads with the JSON format only,
    # and csv never loads: the CLI joins its CSV lines itself.
    heavy = ["csv", "dataclasses", "inspect", "json"]
    probe = f"import sys, hurwitz.cli; print([m for m in {heavy} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
    importers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and "dataclasses" in [a.name for a in node.names])
    ]
    assert not importers, importers


def test_cli_import_leaves_the_oracle_to_the_requests_that_count():
    # Only oracle and verify count factorizations; the package loads the
    # oracle on first use of its one exported name, oracle_hurwitz.
    probe = (
        "import sys, hurwitz.cli; print('hurwitz.oracle' in sys.modules)\n"
        "from hurwitz import oracle_hurwitz\n"
        "print('hurwitz.oracle' in sys.modules, oracle_hurwitz.__module__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert done.stdout.split() == ["False", "True", "hurwitz.oracle"]
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        hurwitz.missing
