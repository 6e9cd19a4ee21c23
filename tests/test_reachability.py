"""Every top-level function and class in ``src/repro`` is reached.

"Reached" means named somewhere outside ``tests/``: by other code in
``src/`` (its own body does not count), by ``benchmarks/``,
``examples/``, ``pyproject.toml`` or ``.github/``.  Imports and the
``__all__`` lists re-export a name without using it, and docstrings
only describe it, so neither counts.  A name string outside a docstring
does count: the pipeline benchmark wraps entry points by their string
names.

Code that only its own tests call is a second path to maintain with no
user.  The allowlist below names the few exceptions, each with the
reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: name -> why it stays although no front door reaches it.
ALLOWLIST = {
    # Test oracles: independent implementations that a test compares
    # the production path against.
    "ac_analysis": "AC oracle for the loop-L and wideband-ladder tests",
    "input_impedance": "AC oracle for the loop-L and wideband-ladder tests",
    "operating_point": "steady-state oracle of the transient property tests",
    "BicubicSpline": "Numerical Recipes oracle for the tensor spline",
    "grover_self_inductance": "Grover closed form, oracle for the PEEC kernel",
    "grover_mutual_inductance": "Grover closed form, oracle for the PEEC kernel",
    "mutual_inductance_parallel_segments":
        "Grover closed form, oracle for the PEEC kernel",
    "self_inductance_via_gmd": "Grover GMD form, oracle for the PEEC kernel",
    # Durability code: its callers' crash safety is what the tests check.
    "fsync_directory": "directory fsync after an atomic rename",
    # Named by benchmarks/pipeline, which must keep finding them.
    "factorize": "wrapped by name as the circuit.factor layer",
    "SOLVER_FACTOR_DENSE": "read by the pipeline benchmark's run.py",
    "correlation_ids": "tags serve.handle spans in the pipeline tracer",
    # Paper structures and table kinds that no design kit builds yet;
    # whether one does or they leave src/ is an open ROADMAP item.
    "ThreeTraceCapacitanceJob": "paper Sec. III 3-trace C, fate undecided",
    "StriplineConfig": "paper Sec. II-B stripline family, no kit builds it",
    "MutualLoopJob": "mutual loop-L tables; job keys pinned by golden tests",
    "PartialSelfInductanceJob":
        "bus partial-L tables; job keys pinned by golden tests",
    "PartialMutualInductanceJob":
        "bus partial-L tables; job keys pinned by golden tests",
}


def _docstring_ids(tree):
    """ids of the docstring constants of every module, class and def."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _references(node, docstrings):
    """Identifier uses under *node*, imports and docstrings excluded."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            names.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return names


def _without_reexports(tree):
    """An ``__init__`` module minus its ``__all__`` assignment."""
    tree.body = [
        stmt for stmt in tree.body
        if not (isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets))
    ]
    return tree


def _scan():
    """Unreached definitions and every top-level name in ``src/repro``.

    A private (``_``-prefixed) definition counts only references from
    its own module; a public one counts references from anywhere.
    """
    definitions = []  # (name, module path, own-body reference counts)
    defined = set()
    references = Counter()
    module_references = {}
    python_files = sorted(SRC.rglob("*.py"))
    for top in ("benchmarks", "examples"):
        python_files += sorted((REPO / top).rglob("*.py"))
    for path in python_files:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            tree = _without_reexports(tree)
        docstrings = _docstring_ids(tree)
        module_references[path] = _references(tree, docstrings)
        references += module_references[path]
        if SRC not in path.parents:
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(stmt.name)
                definitions.append((stmt.name, path,
                                    _references(stmt, docstrings)))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                defined.update(t.id for t in targets
                               if isinstance(t, ast.Name))
    other_files = [REPO / "pyproject.toml"]
    other_files += sorted(p for p in (REPO / ".github").rglob("*")
                          if p.is_file())
    for path in other_files:
        references.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    unreached = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for name, path, own in definitions
        if (module_references[path] if name.startswith("_")
            else references)[name] - own[name] <= 0
    )
    return unreached, defined


@pytest.fixture(scope="module")
def scan():
    return _scan()


def test_every_definition_is_reached(scan):
    unreached, defined = scan
    assert defined, "scan found no definitions under src/repro"
    missing = [entry for entry in unreached
               if entry.rsplit(": ", 1)[1] not in ALLOWLIST]
    assert not missing, (
        "named only by tests (delete them, or allowlist with a reason):\n"
        + "\n".join(missing)
    )


def test_allowlist_names_exist(scan):
    """A name deleted from src/ leaves the allowlist too."""
    _, defined = scan
    stale = sorted(set(ALLOWLIST) - defined)
    assert not stale, f"allowlisted names no longer defined: {stale}"
