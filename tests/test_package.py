"""The package root holds only the version and the start-up settings; every import is
used and comes from its definer; every exception class is caught somewhere; every public
name is read by the program; no command loads jsonschema, only the commands that fill
grids or draw trials load numpy, and only their CSV runs load the CSV word kernel; each
command's traced memory peak stays within its budget."""
import ast
import builtins
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import dpe_multipath
from scenario_helpers import BUNDLED, ECEF_SCENARIO, fixture_with

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = ROOT / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert dpe_multipath.__version__ == tomllib.load(f)["project"]["version"]


def _run(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` on ``src/``, with ``env`` over a copy
    of this one's environment that lacks ``OPENBLAS_NUM_THREADS``."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child.update(PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child, cwd=ROOT, check=True)


@pytest.mark.parametrize("caller, seen", [(None, "1"), ("2", "2")], ids=["default", "caller"])
def test_one_blas_thread_unless_the_caller_says(caller, seen):
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    code = "import os, dpe_multipath; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(["-c", code], **env).stdout == f"{seen}\n"


def imported_modules(args: list[str]) -> set[str]:
    """Every module a fresh interpreter run with ``args`` imports, as ``-X importtime``
    lists them on stderr."""
    done = _run(["-X", "importtime", *args])
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}


def test_report_does_not_load_jsonschema(tmp_path):
    imported = imported_modules(["-m", "dpe_multipath", "report", "--out", str(tmp_path)])
    assert {"numpy", "dpe_multipath.cli"} <= imported
    assert not {m for m in imported if m.partition(".")[0] == "jsonschema"}


LOAD_SCENARIOS = ("import sys\nfrom dpe_multipath import cli\n"
                  "for name in sys.argv[1:]:\n    cli.load_scenario(name)\n")


# The package modules each command imports, by command and table format (``load``
# is ``load_scenario``).  Only CSV runs import ``gridtext``, the CSV word kernel.
NUMPY_FREE = {"cli", "geom", "model", "scmb", "tables"}
COMMAND_MODULES = {
    **{(command, fmt): NUMPY_FREE for command in ("bounds", "project", "intersect", "load")
       for fmt in ("csv", "json")},
    ("caf", "csv"): NUMPY_FREE | {"caf", "gridtext"},
    ("caf", "json"): NUMPY_FREE | {"caf"},
    ("montecarlo", "csv"): NUMPY_FREE | {"caf", "gridtext", "mc"},
    ("montecarlo", "json"): NUMPY_FREE | {"caf", "mc"},
    ("report", "csv"): NUMPY_FREE | {"caf", "gridtext", "mc"},
    ("report", "json"): NUMPY_FREE | {"caf", "mc"},
}


@pytest.mark.parametrize("args, loads", [
    (["bounds", "--radii", "60,40,30,15"], None),
    (["project", "--scenario", "case3.scenario"], None),
    (["intersect", "--scenario", "case3.scenario"], None),
    (["load", *(f"{name}.scenario" for name in BUNDLED)], None),
    (["caf", "--scenario", "case3.scenario", "--space", "position"], "numpy"),
    # mc computes the Monte Carlo stream, and only caf's noise needs numpy.random
    (["montecarlo", "--trials", "10"], "numpy"),
    (["report"], "numpy"),
    (["caf", "--scenario", "noisy.scenario", "--space", "position"], "numpy.random"),
    # satellites authored by ECEF position: their look angles come from geom's rotation
    (["load", "ecef.scenario"], None),
    (["project", "--scenario", "ecef.scenario"], None),
    (["intersect", "--scenario", "ecef.scenario"], None),
    # tuple rows are JSON by the json module alone
    (["bounds", "--radii", "60,40,30,15", "--format", "json"], None),
    (["project", "--scenario", "case3.scenario", "--format", "json"], None),
    (["intersect", "--scenario", "case3.scenario", "--format", "json"], None),
    # numpy rows are JSON without the CSV word kernel
    (["caf", "--scenario", "case3.scenario", "--space", "position", "--format", "json"], "numpy"),
    (["montecarlo", "--trials", "10", "--format", "json"], "numpy"),
    (["report", "--format", "json"], "numpy"),
], ids=["bounds", "project", "intersect", "load-bundled", "caf", "montecarlo", "report",
        "caf-noisy", "load-ecef", "project-ecef", "intersect-ecef", "bounds-json",
        "project-json", "intersect-json", "caf-json", "montecarlo-json", "report-json"])
def test_numpy_loads_only_where_it_is_used(tmp_path, args, loads):
    """``loads``: the deepest numpy package the run loads, ``None`` for no numpy at all;
    the run imports the package modules of :data:`COMMAND_MODULES` for its command and format."""
    key = args[0], args[args.index("--format") + 1] if "--format" in args else "csv"
    noisy = fixture_with("case3", lambda raw: raw.update(noise_sigma=0.1))
    (tmp_path / "noisy.scenario").write_text(json.dumps(noisy))
    (tmp_path / "ecef.scenario").write_text(json.dumps(ECEF_SCENARIO))
    args = [str(tmp_path / a) if a in ("noisy.scenario", "ecef.scenario") else a for a in args]
    if args[0] == "load":  # ``import dpe_multipath.cli``, then ``load_scenario`` of each name
        args = ["-c", LOAD_SCENARIOS, *args[1:]]
    else:
        args = ["-m", "dpe_multipath", *args, "--out", str(tmp_path / "out")]
    imported = imported_modules(args)
    assert any(m.partition(".")[0] == "numpy" for m in imported) == (loads is not None)
    assert any(f"{m}.".startswith("numpy.random.") for m in imported) == (loads == "numpy.random")
    assert {m.partition(".")[2] for m in imported
            if m.startswith("dpe_multipath.")} == COMMAND_MODULES[key]


# ``cli.main`` of ``sys.argv[1:]`` in a fresh interpreter under ``tracemalloc``, after
# numpy and every package module are imported and a full collection has set the
# collector's counts to 0, so that its collections fall at the same points in every
# run; prints the exit status, the traced peak in bytes and numpy's version.
PEAK_CODE = ("import gc, sys, tracemalloc\nimport numpy\n"
             "from dpe_multipath import caf, cli, gridtext, mc\n"
             "gc.collect()\ntracemalloc.start()\nstatus = cli.main(sys.argv[1:])\n"
             "print(status, tracemalloc.get_traced_memory()[1], numpy.__version__)\n")

# Each command's traced peak in bytes, which repeats to within 1 KB from run to run
# where wall time and peak RSS do not, and its budget: ``MEMORY_MARGIN`` over it.
# Measured on CPython 3.11.7 with numpy 2.4.6.  A change that lowers a peak lowers it
# here too; a numpy upgrade that moves one is re-measured and logged.  A budget is
# never widened silently.  ``caf-velocity.scenario`` is perfbench's caf-velocity sky
# (seed 1, 4 channels, 1001^2 velocity cells); ``sky.scenario`` a 12 x 4-path sky.
MEMORY_PEAKS = {
    "report": (["report"], 1_109_137),
    "report-json": (["report", "--format", "json"], 1_102_423),
    "caf-velocity": (["caf", "--space", "velocity", "--scenario", "caf-velocity.scenario"],
                     908_568),
    "montecarlo-1m": (["montecarlo", "--trials", "1000000"], 40_228_904),
    "intersect-sky": (["intersect", "--scenario", "sky.scenario"], 1_065_025),
}
MEMORY_MARGIN = 1.02


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="memory peaks measured on CPython 3.11; re-measure for another")
@pytest.mark.parametrize("name", MEMORY_PEAKS)
def test_memory_peak_within_budget(tmp_path, name):
    args, peak = MEMORY_PEAKS[name]
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    sky = workloads["generate_sky"]
    for scenario, doc in (("caf-velocity.scenario",
                           sky(1, 4, 1, False, [workloads["CAF_VELOCITY_GRID"]])),
                          ("sky.scenario", sky(1, 12, 3, True, []))):
        (tmp_path / scenario).write_text(json.dumps(doc))
    args = [str(tmp_path / a) if a.endswith(".scenario") else a for a in args]
    done = _run(["-c", PEAK_CODE, *args, "--out", str(tmp_path / "out")])
    status, traced, numpy_version = done.stdout.splitlines()[-1].split()
    assert status == "0"
    assert int(traced) <= peak * MEMORY_MARGIN, (
        f"{name}: traced peak {traced} B over the budget {peak * MEMORY_MARGIN:.0f} B"
        f" with numpy {numpy_version}")


def test_no_src_module_imports_jsonschema():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {n}" for n in names if n.partition(".")[0] == "jsonschema"]
    assert found == []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_found():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\nos.sep\n") == ["a", "z"]
    assert unused_imports("from __future__ import annotations\nfrom m import T\nv: T\n") == []


def test_no_unused_module_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): names
              for p in files if (names := unused_imports(p.read_text()))}
    assert unused == {}


PACKAGE = ROOT / "src" / "dpe_multipath"


def defined_names(module: Path) -> set[str]:
    """Names bound at the top level of ``module`` other than by an import."""
    names = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def foreign_imports(path: Path) -> list[str]:
    """``module.name`` for each package name ``path`` imports from a module that
    does not define it; importing a submodule from the package is fine."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # relative: only package modules import that way
            module = node.module or ""
        elif node.module and node.module.split(".")[0] == "dpe_multipath":
            module = node.module.partition(".")[2]
        else:
            continue
        if not module:  # ``from dpe_multipath import cli``
            found += [f"dpe_multipath.{a.name}" for a in node.names
                      if not (PACKAGE / f"{a.name}.py").is_file()
                      and not (PACKAGE / a.name).is_dir()]
            continue
        source = PACKAGE / f"{module.replace('.', '/')}.py"
        defined = defined_names(source)
        found += [f"{module}.{a.name}" for a in node.names if a.name not in defined]
    return found


def test_names_imported_from_their_defining_module():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    foreign = {str(p.relative_to(ROOT)): names
               for p in files if (names := foreign_imports(p))}
    assert foreign == {}


# Private names that one package module imports from another, as
# ``importer: module.name``.  Each is a seam between two modules; the list may
# only shrink.
PRIVATE_IMPORTS_ALLOWED = {
    "cli: caf._ArgmaxFold",
    "tables: gridtext._TEXTS",
    "gridtext: tables._csv_cell",
}


def private_imports(files: list[Path]) -> set[str]:
    """``importer: module.name`` for each private name that a module of ``files``
    imports from another package module, at any depth of its body."""
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level:  # relative: only package modules import that way
                module = node.module
            elif node.module.split(".")[0] == "dpe_multipath":
                module = node.module.partition(".")[2]
            else:
                continue
            found |= {f"{path.stem}: {module}.{a.name}" for a in node.names
                      if a.name.startswith("_") and module and module != path.stem}
    return found


def test_private_imports_found(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from . import _p\nfrom .a import _x, y\nfrom .lib import _self\n"
                   "from dpe_multipath.b import _z\nfrom os import _exit\n"
                   "def f():\n    from .c import _w\n")
    assert private_imports([lib]) == {"lib: a._x", "lib: b._z", "lib: c._w"}


def test_private_imports_only_shrink():
    assert private_imports(sorted((ROOT / "src").rglob("*.py"))) == PRIVATE_IMPORTS_ALLOWED


def uncaught_exception_classes(files: list[Path]) -> set[str]:
    """``module.Class`` for each exception class defined at the top level of
    ``files`` that no ``except`` clause of ``files`` names, alone or in a tuple.

    A class is an exception class when a base is a built-in exception or
    another exception class of ``files``.
    """
    def name(node: ast.expr) -> str | None:  # ``x`` of ``x`` or ``a.x``
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    trees = [(p.stem, ast.parse(p.read_text())) for p in files]
    classes = {node.name: (module, {name(b) for b in node.bases})
               for module, tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    found = {n for n, v in vars(builtins).items()
             if isinstance(v, type) and issubclass(v, BaseException)}
    while grown := {n for n, (_, bases) in classes.items() if n not in found and bases & found}:
        found |= grown
    caught = {name(t) for _, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
    return {f"{module}.{n}" for n, (module, _) in classes.items() if n in found - caught}


def test_uncaught_exception_classes_found(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A(ValueError): pass\nclass B(A): pass\nclass C(Exception): pass\n"
                   "class D(B): pass\nclass Plain: pass\nclass Sub(Plain): pass\n")
    (tmp_path / "app.py").write_text(
        "import lib\ntry:\n    pass\nexcept (lib.A, KeyError):\n    pass\n"
        "try:\n    pass\nexcept C:\n    pass\n")
    assert uncaught_exception_classes([lib, tmp_path / "app.py"]) == {"lib.B", "lib.D"}


def test_every_exception_class_is_caught_somewhere():
    assert uncaught_exception_classes(sorted((ROOT / "src").rglob("*.py"))) == set()


# Public names that no command or driver reads: perfbench's tracer wraps
# these two through ``vars(cls)[meth]`` of the class ``cli`` binds, so every
# ``--trace 1`` run would crash without them.  Helpers that only the tests
# call live in the tests.
UNREAD_ALLOWED = {
    "tables.ResultTable.to_csv",
    "tables.ResultTable.to_json",
}


def public_definitions(module: str, tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each public top-level function and class of
    ``tree``, and of each public method or property of its top-level classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((f"{module}.{node.name}", node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not m.name.startswith("_")]
    return found


def unread_public_names(files: list[Path]) -> set[str]:
    """Public names defined in ``files`` that no ``Name`` or ``Attribute`` of
    ``files`` reads outside the name's own definition."""
    trees = [(p.stem, ast.parse(p.read_text())) for p in files]
    reads = [(n.id if isinstance(n, ast.Name) else n.attr, n)
             for _, tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))]
    unread = set()
    for module, tree in trees:
        for qualname, node in public_definitions(module, tree):
            name = qualname.rpartition(".")[2]
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == name and id(n) not in inside for r, n in reads):
                unread.add(qualname)
    return unread


def test_unread_public_names_found(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used(): pass\ndef orphan(): orphan()\n"
                   "class C:\n    def m(self): pass\n    def _p(self): pass\n")
    (tmp_path / "app.py").write_text("from lib import used, C\nused()\nC()\n")
    assert unread_public_names([lib, tmp_path / "app.py"]) == {"lib.orphan", "lib.C.m"}


def test_every_public_name_is_read_by_the_program():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert unread_public_names(files) == UNREAD_ALLOWED
