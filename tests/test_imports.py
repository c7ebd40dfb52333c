"""What each command loads: the package exports names lazily (PEP 562), and
a CLI process imports only the modules its subcommand runs.

Every CLI call runs in a fresh process, so start-up is part of each
command's cost.  These tests pin that no module of the package imports
mpmath, which only the tests use as their oracle, and that a command loads none
of the stdlib modules that the package's records, annotations, locks and
writers once pulled in: ``dataclasses`` (with ``inspect``, ``ast``, ``dis``
and ``tokenize``), ``typing``, ``threading``, ``csv`` and ``json``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclassfun
from qclassfun import fusion

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qclassfun"
SUBMODULES = ("acceptance", "bicrossed", "budgets", "cli", "criteria", "dyadic", "errors",
              "fusion", "intervals", "noncrossing", "report", "scalars", "spectral")


def _run(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """What `code` prints, run in a fresh interpreter started with `flags`."""
    env = dict(os.environ)
    env.pop("QCLASSFUN_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True).stdout


def _python(code: str, *args: str, flags: tuple[str, ...] = ()):
    """The JSON that `code` prints, run in a fresh interpreter."""
    return json.loads(_run(code, *args, flags=flags))


# ---------------------------------------------------------------------------
# import graph

#: Commands of every subcommand, none of which loads mpmath, with their exit
#: codes: `dims` prints the enclosures of exact rationals with ints alone,
#: `series` and all three thresholds compute theirs on ints, escalated
#: precisions and refusals included, `jacobi` bounds its relation residuals
#: in fixed point, with the phase's cosine and sine from `dyadic`,
#: `spectral` computes its norms at any ``4b`` and its coefficients on
#: dyadics, with ``log q`` and ``exp`` from `dyadic`, and `report` runs all
#: of these.
LIGHT_COMMANDS = [
    (["frobnicate"], 2),
    (["dims", "--family", "o-plus", "--N", "3", "--bits", "0"], 2),
    (["dims", "--family", "so3", "--N", "5", "--dimq", "7", "--max", "40"], 0),
    (["dims", "--family", "u-plus", "--dim", "3", "--qq", "13/97", "--word-len", "5",
      "--format", "csv"], 0),
    (["dims", "--family", "o-plus", "--N", "3", "--qq", "1/7", "--bits", "1024"], 0),
    (["moments", "--family", "so3", "--N", "4"], 0),
    (["bicrossed", "--q", "1/3", "--mode", "irrational"], 0),
    (["series", "--family", "o-plus", "--N", "3", "--qq", "0.2"], 0),
    (["series", "--family", "u-plus", "--dim", "2", "--qq", "0.22"], 0),
    (["series", "--family", "so3", "--N", "4", "--dimq", "5", "--bits", "96"], 0),
    (["series", "--family", "u-plus", "--dim", "2", "--qq", "0.22", "--bits", "256"], 0),
    (["series", "--family", "o-plus", "--N", "3"], 0),  # Kac: diverges
    (["series", "--family", "o-plus", "--N", "9" * 1000, "--n-max", "1000"], 3),
    (["threshold", "--which", "dim2", "--tol", "1e-4"], 0),
    (["threshold", "--which", "remark", "--tol", "1e-4"], 0),
    (["threshold", "--which", "dim2", "--tol", "1e-18", "--bits", "32"], 0),
    (["threshold", "--which", "remark", "--tol", "1e-18", "--bits", "32"], 0),
    (["threshold", "--which", "ratio3"], 0),
    (["threshold", "--which", "ratio3", "--bits", "192"], 0),
    (["jacobi", "--M", "2", "--q", "0.5"], 0),
    (["jacobi", "--M", "3", "--q", "3/10"], 0),
    (["jacobi", "--M", "8", "--q", "0.5"], 0),
    (["jacobi", "--M", "32", "--q", "1/2", "--phase", "3/7"], 0),
    (["spectral", "--rho-ladder", "4", "--q", "1/3", "--b=-1/4"], 0),
    (["spectral", "--rho-ladder", "4", "--q", "1/3", "--t", "1/3"], 0),
    (["spectral", "--rho-ladder", "4", "--q", "1/3", "--b=1/3"], 0),
    (["spectral", "--rho-ladder", "4", "--q", "1/3", "--b=1/3", "--t", "7/3",
      "--bits", "1024"], 0),
    (["report"], 0),
]

#: Runs the argv lists read from argv[1] in turn and prints, after each,
#: its exit code and whether mpmath is loaded.
RUN_AND_PROBE = """
import contextlib, io, json, sys
from qclassfun.cli import main
probes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    probes.append([code, "mpmath" in sys.modules])
print(json.dumps(probes))
"""


def test_commands_without_interval_arithmetic_never_load_mpmath():
    probes = _python(RUN_AND_PROBE, json.dumps([argv for argv, _ in LIGHT_COMMANDS]))
    assert probes == [[code, False] for _, code in LIGHT_COMMANDS]


#: Stdlib modules that no light command loads.  csv is the exception once a
#: ``--format csv`` command has run, since it writes the table.  json is read
#: only for a config file: a report quotes its strings with ``_json``.
LEAN_UNLOADED = ("dataclasses", "inspect", "typing", "threading", "json", "csv")

#: Runs the argv lists read from argv[1] in turn and prints, after each,
#: its exit code and which of LEAN_UNLOADED are loaded.  It reads and prints
#: Python literals, not JSON, so that it loads no json itself.
RUN_AND_LIST = """
import ast, contextlib, io, sys
from qclassfun.cli import main
probes = []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    probes.append([code, [name for name in %r if name in sys.modules]])
print(repr(probes))
""" % (LEAN_UNLOADED,)


def test_light_commands_load_none_of_the_lean_modules():
    # -S: a site-packages .pth file may import some of these before any command runs
    probes = ast.literal_eval(_run(RUN_AND_LIST, repr([argv for argv, _ in LIGHT_COMMANDS]),
                                   flags=("-S",)))
    csv_written = False
    for (argv, code), probe in zip(LIGHT_COMMANDS, probes, strict=True):
        csv_written = csv_written or "csv" in argv
        assert probe == [code, ["csv"] if csv_written else []], argv
    assert csv_written


def test_bare_cli_import_loads_no_json_and_none_of_the_lean_modules():
    loaded = _run(f"import sys, qclassfun.cli\n"
                  f"print(*(m for m in {LEAN_UNLOADED!r} if m in sys.modules))",
                  flags=("-S",))
    assert loaded.split() == []


def test_bare_cli_import_loads_only_the_budgets_and_errors_of_the_package():
    # the rational flags' reader lives in dyadic, imported when a flag is read
    loaded = _python("import json, sys, qclassfun.cli\n"
                     "print(json.dumps([m for m in sys.modules if m.startswith('qclassfun.')]))")
    assert sorted(loaded) == ["qclassfun.budgets", "qclassfun.cli", "qclassfun.errors"]


def test_bicrossed_loads_no_fusion():
    loaded = _python("import contextlib, io, json, sys\n"
                     "from qclassfun.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = main(['bicrossed', '--q', '1/3', '--mode', 'irrational'])\n"
                     "print(json.dumps([code, 'qclassfun.fusion' in sys.modules]))")
    assert loaded == [0, False]


def test_bare_package_import_loads_no_working_module():
    loaded = _python("import json, sys, qclassfun\n"
                     "print(json.dumps([m for m in sys.modules if m.startswith('qclassfun.')]))")
    assert set(loaded) <= {"qclassfun.errors", "qclassfun.budgets"}


def _module_level_imports(path: Path, everywhere: bool = False) -> set[str]:
    """Modules that `path` imports when it is imported: every import outside
    function bodies and ``if TYPE_CHECKING:`` blocks, or with `everywhere`
    every import at all.  A submodule of the package is named by its bare
    name, as ``from . import x`` does."""
    found: set[str] = set()
    stack: list[ast.AST] = [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if not everywhere:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                stack.extend(node.orelse)
                continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found.update([node.module] if node.module else [a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


GRAPH = {path.stem: _module_level_imports(path) for path in PACKAGE.glob("*.py")}


def test_no_module_imports_mpmath_even_inside_a_function():
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "mpmath" in _module_level_imports(path, everywhere=True))
    assert importers == []


def test_no_module_imports_intervals_even_inside_a_function():
    # intervals keeps only the names the benchmark harness binds
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "intervals" in _module_level_imports(path, everywhere=True))
    assert importers == []


def test_no_module_reaches_mpmath_on_import():
    def reaches_mpmath(name: str, seen: set[str]) -> bool:
        seen.add(name)
        return "mpmath" in GRAPH[name] or any(
            reaches_mpmath(dep, seen) for dep in GRAPH[name] & GRAPH.keys() - seen)

    assert sorted(name for name in GRAPH if reaches_mpmath(name, set())) == []


def test_importing_every_submodule_loads_no_mpmath():
    # in a fresh process, where nothing has loaded mpmath yet
    loaded = _python(f"import json, sys\nfrom qclassfun import {', '.join(SUBMODULES)}\n"
                     f"print(json.dumps('mpmath' in sys.modules))")
    assert loaded is False


def test_budgets_module_imports_nothing():
    assert GRAPH["budgets"] == set()


def test_budgets_are_re_exported_by_their_enforcing_modules():
    from qclassfun import budgets, criteria, intervals, spectral

    assert intervals.DEFAULT_BITS == budgets.DEFAULT_BITS
    assert intervals.MAX_BITS == criteria.MAX_BITS == budgets.MAX_BITS
    assert criteria.DEFAULT_MAX_TERMS == budgets.DEFAULT_MAX_TERMS
    assert spectral.MAX_COMMUTANT_SIZE == budgets.MAX_COMMUTANT_SIZE
    assert fusion.MAX_TABLE_DIGITS == budgets.MAX_TABLE_DIGITS


def test_every_budget_is_defined_in_budgets():
    # a module-level MAX_* or DEFAULT_* assignment anywhere else is a second home
    defined = {path.stem: {target.id for node in ast.parse(path.read_text()).body
                           if isinstance(node, (ast.Assign, ast.AnnAssign))
                           for target in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target])
                           if isinstance(target, ast.Name)
                           and target.id.startswith(("MAX_", "DEFAULT_"))}
               for path in PACKAGE.glob("*.py")}
    assert {name: names for name, names in defined.items() if names} == {
        "budgets": {"DEFAULT_BITS", "MAX_BITS", "MAX_RATIONAL_DIGITS", "DEFAULT_MAX_TERMS",
                    "MAX_COMMUTANT_SIZE", "MAX_DIM_DIGITS", "MAX_POWER_BITS",
                    "MAX_SCAN_DIGITS", "MAX_TABLE_DIGITS"}}


# ---------------------------------------------------------------------------
# package exports


@pytest.mark.parametrize("name", qclassfun.__all__)
def test_exported_name_is_its_home_modules_attribute(name):
    value = getattr(qclassfun, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("qclassfun.")
    assert getattr(home, name) is value


def _references(path: Path, home_of: dict[str, str]) -> set[str]:
    """Exported names that the code in `path` reaches: as ``home.name`` with
    `home` the name's home module, through ``from ... import name``, as a
    bare name loaded inside its home module, or, in ``perfbench/traced.py``,
    which binds its layers by name, as a string constant."""
    module = path.stem
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if home_of.get(node.attr) == node.value.id:
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if home_of.get(node.id) == module and path.parent == PACKAGE:
                found.add(node.id)
        elif isinstance(node, ast.Constant) and path == ROOT / "perfbench" / "traced.py":
            found.add(node.value)
    return found & home_of.keys()


def test_every_export_is_used_outside_the_tests():
    # a public name only the tests reach is dead library code
    home_of = {name: getattr(qclassfun, name).__module__.rpartition(".")[2]
               for name in qclassfun.__all__}
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_references(path, home_of) for path in sources))
    assert sorted(home_of.keys() - used) == []


def test_exports_are_listed_by_dir():
    assert set(qclassfun.__all__) <= set(dir(qclassfun))
    assert "__version__" in dir(qclassfun)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qclassfun.no_such_name  # noqa: B018
    assert not hasattr(qclassfun, "threshold")


def test_exports_follow_a_rebinding_in_the_home_module(monkeypatch):
    def replacement(*args, **kwargs):
        raise AssertionError("unreachable")

    monkeypatch.setattr(fusion, "dim", replacement)
    assert qclassfun.dim is replacement
    from qclassfun import dim

    assert dim is replacement


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qclassfun import *", namespace)
    assert set(qclassfun.__all__) <= set(namespace)


def test_submodules_import_through_the_package():
    # in a fresh process, where no submodule is loaded yet
    names = ", ".join(SUBMODULES)
    loaded = _python(f"import json\nfrom qclassfun import {names}\n"
                     f"print(json.dumps([m.__name__ for m in ({names})]))")
    assert loaded == [f"qclassfun.{name}" for name in SUBMODULES]
