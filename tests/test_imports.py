"""Import side effects: importing the package, running a mode scan at any
p or building the similarity propagators loads no scipy at all, and
importing the CLI leaves BLAS on one thread.  The layering: the sibling
imports under src/blowuplab form no cycle, the linear semigroup check
runs without the nonlinear layer, no module imports mpmath, and none
names np.longdouble."""

import ast
import graphlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent("""
    import importlib, pkgutil, sys
    import numpy as np
    import blowuplab
    for mod in pkgutil.iter_modules(blowuplab.__path__):
        importlib.import_module(f"blowuplab.{mod.name}")
    assert "scipy.linalg" not in sys.modules
    # only the eigen-triple certificate needs decimal, and imports it
    assert "decimal" not in sys.modules
    from blowuplab.evolve import _step_operators, ode_blowup_instability
    from blowuplab.modeanalysis import mode_scan
    from blowuplab.modulation import _nonlinear_integrals

    for p, n_continued in ((0.5, 0), (0.75, 3), (1.0, 4)):
        scan = mode_scan(p)
        assert scan.continued.sum() == n_continued and scan.lams.size == 1891
        assert scan.failures == []
    ode_blowup_instability(0.99)
    taus = np.linspace(0.0, 1.0, 5)
    I_plain, _, _ = _nonlinear_integrals(taus, np.ones((5, 3)))
    assert np.allclose(I_plain, 1.0)
    _step_operators(0.75, 64, 0.05)
    print(" ".join(sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))))
""")


def test_fresh_process_loads_no_integrate_or_interpolate():
    """Importing every module, running mode scans with and without
    degenerate points (p = 0.5, 0.75, 1), the closed-form instability check,
    the Simpson integrals and the step propagators expm(h L_p / 2) loads no
    scipy module at all, and importing every module loads no decimal."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


CLOSED_FORM_PROBE = textwrap.dedent("""
    import sys
    from blowuplab.evolve import ode_blowup_instability
    from blowuplab.linop import appendixB_no_second_jordan_block

    appendixB_no_second_jordan_block()
    ode_blowup_instability(0.99)
    print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
""")


def test_closed_form_checks_load_no_linalg_integrate_or_interpolate():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CLOSED_FORM_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    loaded = out.split()
    for sub in ("scipy.linalg", "scipy.integrate", "scipy.interpolate"):
        assert not any(m == sub or m.startswith(sub + ".") for m in loaded), sub


THREADS_PROBE = textwrap.dedent("""
    import os
    import blowuplab.cli, scipy.linalg
    print(len(os.listdir("/proc/self/task")),
          os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
""")


def _threads_after_cli_import(preset):
    """(OS threads, OPENBLAS_NUM_THREADS) of a fresh process that imports
    the CLI and then scipy.linalg, with the variable preset or unset."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    threads, setting = out.split()
    return int(threads), setting


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count threads")
def test_cli_import_runs_blas_on_one_thread():
    """Importing the CLI before numpy and scipy starts no BLAS thread: the
    process keeps one OS thread.  A preset OPENBLAS_NUM_THREADS is kept."""
    assert _threads_after_cli_import(None) == (1, "1")
    assert _threads_after_cli_import("2")[1] == "2"


PACKAGE = SRC / "blowuplab"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")
           if path.stem != "__init__"}


def _sibling_imports(tree: ast.AST) -> set:
    """The sibling modules imported anywhere in tree, by `from .m import x`,
    `from . import m`, `import blowuplab.m` or `from blowuplab.m import x`."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["blowuplab" * (node.level > 0),
                                          node.module]))
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
    parts = (name.split(".") for name in dotted)
    return {p[1] for p in parts if p[0] == "blowuplab" and len(p) > 1} \
        & MODULES.keys()


def test_sibling_imports_are_acyclic_and_at_module_level():
    """The modules under src/blowuplab import each other without a cycle,
    and none but the CLI front-end, which loads each command's modules
    lazily, imports a sibling inside a function."""
    graph, local = {}, []
    for name, path in sorted(MODULES.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[name] = _sibling_imports(tree)
        if name == "cli":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [(name, fn.name, m) for m in _sibling_imports(fn)]
    assert graph["evolve"] >= {"linop"}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")
    assert local == []


SEMIGROUP_PROBE = textwrap.dedent("""
    import sys
    from blowuplab.chebgrid import ChebGrid
    from blowuplab.linop import semigroup_action_check

    semigroup_action_check(0.75, ChebGrid.make(32))
    print("blowuplab.evolve" in sys.modules)
""")


def test_semigroup_check_loads_no_evolve():
    """linop owns exp(h L_p): the linear semigroup check runs in a fresh
    process without loading the nonlinear layer, evolve."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SEMIGROUP_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def _imported_names(tree: ast.AST) -> set:
    """Every module name an `import` or `from ... import` in tree names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_no_module_imports_mpmath():
    """numpy is the only run-time dependency: mpmath is the tests' oracle."""
    offenders = [name for name, path in sorted(MODULES.items())
                 if any(n.split(".")[0] == "mpmath" for n in _imported_names(
                     ast.parse(path.read_text(encoding="utf-8"))))]
    assert offenders == []


def test_no_module_names_longdouble():
    """src/ computes alike on every platform: the C long double, 80-bit on
    x86-64 Linux and plain double on Windows and macOS arm64, is not used.
    The tests' own extended-precision oracle may use it."""
    offenders = [name for name, path in sorted(MODULES.items())
                 if "longdouble" in path.read_text(encoding="utf-8")]
    assert offenders == []


SPECTRUM_PROBE = textwrap.dedent("""
    import sys
    from blowuplab.cli import main

    print(main(["spectrum"]), "mpmath" in sys.modules)
""")


def test_spectrum_run_loads_no_mpmath(tmp_path):
    """`blowuplab spectrum`, eigen-triple certificate included, runs in a
    fresh process without loading mpmath."""
    env = dict(os.environ, PYTHONPATH=str(SRC), BLOWUPLAB_OUT=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", SPECTRUM_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "spectral_report.txt").exists()
