"""Batch front-end: config parsing, experiment orchestration, CSV emission.

Subcommands
    profile-check    finite-difference residuals of the closed-form family
    mode-scan        connection-defect scan over a lambda grid
    spectrum         collocation eigenvalues, gap, ranks, eigen-triple residuals
    semigroup-check  exp(tau L) structure and stable-subspace decay
    evolve           nonlinear similarity evolution + physical-space crosscheck
    instability-p1   ODE blow-up family: smallness vs. L2 divergence slopes
    modulate         modulation fixed point for small perturbation data
    appendixB        closed-form Jordan-structure checks at p = 3/4
    all              everything above with default parameters

Exit codes: 0 pass, 2 config error, 3 numerical failure, 4 acceptance failure.
Every run writes `manifest.txt` (resolved config, version, environment,
timings, seed) to the output directory; the env var BLOWUPLAB_OUT overrides
`output_dir`.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

# One BLAS thread unless the user chose otherwise; this must precede the
# first numpy import.  A second OpenBLAS thread spins while it waits.  On
# 2 vCPUs, at the default N = 64 (130 x 130 matvecs in every RK4 step,
# 258 x 258 eigensolves), one similarity step took 124 us with two threads
# and 87 us with one, and `modulate` used twice the CPU time for a slower
# wall time.  At larger N it pays less: `spectrum`, a 2(2N+1) square
# eigensolve, took 0.97, 1.06 and 1.01 times its two-thread wall time at
# N = 128, 256 and 384, on a fifth to a third less CPU.  Larger N was not
# measured.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

# largest collocation order: see README for the memory it implies
MAX_N = 512

COMMANDS = ("profile-check", "mode-scan", "spectrum", "semigroup-check",
            "evolve", "instability-p1", "modulate", "appendixB", "all")


class ConfigError(ValueError):
    """Bad key, bad type, or constraint violation in the run configuration."""


def _positive(name):
    def check(v):
        if not v > 0:
            raise ConfigError(f"{name} must be positive, got {v}")
    return check


def _check_p(v):
    if not 0.0 < v <= 1.0:
        raise ConfigError(f"p must lie in (0, 1], got {v}")


def _check_N(v):
    if not 8 <= v <= MAX_N:
        raise ConfigError(f"N must lie in [8, {MAX_N}], got {v}")


def _check_tau_max(v):
    if not 0.0 < v <= 15.0:
        raise ConfigError(f"tau_max must lie in (0, 15], got {v}")


def _check_nonneg(name):
    def check(v):
        if v < 0:
            raise ConfigError(f"{name} must be >= 0, got {v}")
    return check


# key -> (python type, default, validator or None)
_SCHEMA = {
    "p": (float, 0.75, _check_p),
    "T": (float, 1.0, _positive("T")),
    "kappa": (float, 0.0, None),
    "x0": (float, 0.0, None),
    "N": (int, 64, _check_N),
    "dt": (float, 0.0, _check_nonneg("dt")),       # 0 = automatic
    "tau_max": (float, 12.0, _check_tau_max),
    "epsilon": (float, 1e-4, _check_nonneg("epsilon")),
    "seed": (int, 0, _check_nonneg("seed")),
    "lambda_re_min": (float, 0.0, None),
    "lambda_re_max": (float, 3.0, None),
    "lambda_im_max": (float, 3.0, _check_nonneg("lambda_im_max")),
    "lambda_step": (float, 0.1, _positive("lambda_step")),
    "tag": (str, "", None),
    "output_dir": (str, "out", None),
}

CROSSCHECK_BOUND = 1e-4     # evolve: max |u_phys - u_sim| on the cone sections
# instability-p1 probes the ODE limit p -> 1, so its own default p differs
_INSTABILITY_P1_DEFAULT_P = 0.99


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path = Path("out")
    # keys the config file or the command line set, as opposed to defaults
    given: frozenset = frozenset()

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; "
                              f"expected one of {', '.join(COMMANDS)}")

    def __getitem__(self, key):
        return self.parameters[key]


def _coerce(key: str, raw: str) -> object:
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}; known keys: "
                          f"{', '.join(sorted(_SCHEMA))}")
    typ, _, validate = _SCHEMA[key]
    try:
        val = typ(raw)
    except ValueError:
        raise ConfigError(
            f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    if validate is not None:
        validate(val)
    return val


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_config(argv) -> RunConfig:
    """Resolve (defaults <- config file <- command-line flags) to a RunConfig."""
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value config file")
    for key in _SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line") from None
        raise
    params = {k: default for k, (_, default, _) in _SCHEMA.items()}
    if ns.command == "instability-p1":
        params["p"] = _INSTABILITY_P1_DEFAULT_P
    given = set()
    if ns.config:
        for key, raw in _read_config_file(ns.config).items():
            params[key] = _coerce(key, raw)
            given.add(key)
    for key in _SCHEMA:
        raw = getattr(ns, key)
        if raw is not None:
            params[key] = _coerce(key, raw)
            given.add(key)
    if params["lambda_re_max"] < params["lambda_re_min"]:
        raise ConfigError(f"lambda_re_max ({params['lambda_re_max']}) must "
                          f"be >= lambda_re_min ({params['lambda_re_min']})")
    out_dir = os.environ.get("BLOWUPLAB_OUT") or params["output_dir"]
    if not params["tag"]:
        params["tag"] = ns.command
    return RunConfig(command=ns.command, parameters=params,
                     output_dir=Path(out_dir), given=frozenset(given))


# ---------------------------------------------------------------------------
# CSV / manifest helpers

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


@contextmanager
def _atomic_open(path: Path):
    """Text handle on `path` + ".tmp", renamed onto `path` only once written,
    so a failure mid-write never leaves a truncated file and keeps any
    previous one; the temporary file is removed either way."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path, header: list, rows) -> None:
    """RFC-4180 CSV, 17 significant digits, written atomically."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _environment() -> list:
    """numpy, BLAS and the OPENBLAS_NUM_THREADS setting (the environment
    value, not a measured thread count), core count and the scipy this run
    loaded, read without importing anything: scipy only appears if a command
    pulled it in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = sorted(name[6:] for name, mod in list(sys.modules.items())
                    if name.startswith("scipy.") and name.count(".") == 1
                    and not name[6:].startswith("_")
                    and hasattr(mod, "__path__"))
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())   # no sched_getaffinity on macOS, Windows
    lines = [f"numpy_version = {np.__version__}",
             f"blas = {blas['name']} {blas.get('version', 'unknown')}",
             f"nproc = {nproc}",
             f"openblas_num_threads = {os.environ['OPENBLAS_NUM_THREADS']}",
             f"scipy_modules = {', '.join(loaded) or 'none'}"]
    if "scipy" in sys.modules:
        lines.append(f"scipy_version = {sys.modules['scipy'].__version__}")
    return lines


def _write_manifest(cfg: RunConfig, timings: list, checks: list) -> None:
    lines = [f"command = {cfg.command}"]
    for key in sorted(cfg.parameters):
        lines.append(f"{key} = {_fmt(cfg.parameters[key])}")
    lines.append(f"version = {__version__}")
    lines.append("rng = philox")
    lines += _environment()
    for name, seconds in timings:
        lines.append(f"timing_{name}_s = {seconds:.3f}")
    for name, ok, detail in checks:
        lines.append(f"check_{name} = {'pass' if ok else 'FAIL'} ({detail})")
    with _atomic_open(cfg.output_dir / "manifest.txt") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations; each returns a list of (name, ok, detail)

def _run_profile_check(cfg: RunConfig) -> list:
    from .profiles import (ProfileParams, eval_profile, pde_residual,
                           sample_interior_cone_points)

    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    # order is fitted on the larger steps, where truncation dominates the
    # FD roundoff floor (~eps/h^2, i.e. ~1e-10 already at h = 1e-3)
    hs = (3.2e-2, 1.6e-2, 8e-3, 1e-3)
    rows, checks = [], []
    for p in (0.25, 0.5, 0.75, 1.0):
        params = ProfileParams(p=p, T=cfg["T"], kappa=cfg["kappa"],
                               x0=cfg["x0"])

        def u(x, t, _pr=params):
            return eval_profile(_pr, x, t)[0]

        x, t = sample_interior_cone_points(params, 500, rng)
        worst = {h: float(np.max(pde_residual(u, x, t, h))) for h in hs}
        order = math.log(worst[hs[0]] / worst[hs[2]]) / math.log(hs[0] / hs[2])
        for h in hs:
            rows.append((p, h, worst[h]))
        ok = order >= 3.5 and worst[1e-3] < 1e-9
        checks.append((f"profile_p{p}", ok,
                       f"order={order:.2f} res(h=1e-3)={worst[1e-3]:.2e}"))
    write_csv(cfg.output_dir / "profile_residuals.csv",
              ["p", "h", "max_residual"], rows)
    return checks


def _run_mode_scan(cfg: RunConfig) -> list:
    from .modeanalysis import default_lambda_grid, mode_scan

    grid = default_lambda_grid(cfg["lambda_re_min"], cfg["lambda_re_max"],
                               cfg["lambda_im_max"], cfg["lambda_step"])
    scan = mode_scan(cfg["p"], grid)
    results = scan.points
    write_csv(cfg.output_dir / "mode_scan.csv",
              ["re_lambda", "im_lambda", "defect", "continued"],
              [(lam.real, lam.imag, d, int(cont))
               for (lam, d), cont in zip(results, scan.continued)])
    n_nan = sum(math.isnan(d) for _, d in results)
    n_bad = 0
    for lam, defect in results:
        near = min(abs(lam), abs(lam - 1.0)) <= 0.05
        # a NaN defect fails either comparison and so counts as a violation
        n_bad += not (defect < 1e-6 if near else defect > 1e-3)
    n_closed = len(results) - scan.n_continuation
    detail = (f"{len(results)} points ({n_closed} closed form, "
              f"{scan.n_continuation} continuation), {n_bad} violations, "
              f"{n_nan} NaN")
    if scan.failures:
        lam, message = scan.failures[0]
        detail += f" (lam={lam:g}: {message})"
    return [("mode_scan", n_bad == 0, detail)]


def _run_spectrum(cfg: RunConfig) -> list:
    from .chebgrid import ChebGrid
    from .linop import (OMEGA0, eigen_triple_residuals, riesz_projectors_for,
                        spectrum)

    p, N = cfg["p"], cfg["N"]
    # first: it rejects p = 1 before any eigenvalues are taken or written
    res = eigen_triple_residuals(p, N=N)
    grid = ChebGrid.make(N)
    rep = spectrum(p, grid)
    rows = [(z.real, z.imag, r, int(fl))
            for z, r, fl in zip(rep.eigenvalues, rep.residuals, rep.robust)]
    write_csv(cfg.output_dir / f"spectrum_p{p:g}_N{N}.csv",
              ["re", "im", "residual", "robust_flag"], rows)

    P0, r0, P1, r1, _ = riesz_projectors_for(p, grid)
    report = [f"p = {_fmt(p)}", f"N = {N}",
              f"gap_omega0 = {_fmt(rep.gap_omega0)}",
              f"gap_raw = {_fmt(rep.gap_raw)}",
              f"rank_P0 = {r0}", f"rank_P1 = {r1}"]
    report += [f"{k} = {_fmt(v)}" for k, v in res.items()]
    with _atomic_open(cfg.output_dir / "spectral_report.txt") as fh:
        fh.write("\n".join(report) + "\n")
    worst = np.max(list(res.values()))
    checks = [
        ("gap", 0.0 < rep.gap_omega0 <= OMEGA0,
         f"omega0={rep.gap_omega0:g} gap_raw={rep.gap_raw:.3g}"),
        ("ranks", (r0, r1) == (2, 1), f"rank_P0={r0} rank_P1={r1}"),
        ("eigen_triples", worst < 1e-7, f"max residual {worst:.2e}"),
    ]
    return checks


def _run_semigroup_check(cfg: RunConfig) -> list:
    from .chebgrid import ChebGrid
    from .linop import semigroup_action_check

    out = semigroup_action_check(cfg["p"], ChebGrid.make(cfg["N"]),
                                 seed=cfg["seed"])
    rows = list(zip(out["tau"], out["stable_norms"]))
    write_csv(cfg.output_dir / "semigroup_stable_norms.csv",
              ["tau", "stable_norm"], rows)
    return [
        ("semigroup_P1", out["err_P1"] < 1e-6, f"err={out['err_P1']:.2e}"),
        ("semigroup_P0", out["err_P0"] < 1e-6, f"err={out['err_P0']:.2e}"),
        ("stable_decay", out["stable_slope"] <= out["omega1_target"],
         f"slope={out['stable_slope']:.3f} target<={out['omega1_target']:.3f}"),
    ]


def _run_evolve(cfg: RunConfig) -> list:
    from .evolve import (DECAY_FIT_WINDOW, EvolveConfig, evolve_perturbation,
                         physical_space_crosscheck)
    from .linop import OMEGA0

    dt = cfg["dt"] if cfg["dt"] > 0 else None
    ecfg = EvolveConfig(p=cfg["p"], kappa=cfg["kappa"], T=cfg["T"],
                        x0=cfg["x0"], N=cfg["N"], dt=dt,
                        tau_max=cfg["tau_max"], epsilon=cfg["epsilon"])
    fit = evolve_perturbation(ecfg)
    tag = cfg["tag"]
    write_csv(cfg.output_dir / f"decay_{tag}.csv",
              ["tau", "norm_k", "norm_L2"],
              zip(fit.taus, fit.norms, fit.l2_norms))
    a, b = DECAY_FIT_WINDOW
    checks = [("decay_rate", fit.decays_at(-0.8 * OMEGA0),
               f"rate={fit.fitted_rate:.3f} target<={-0.8 * OMEGA0:.3f} "
               f"r2={fit.r_squared:.4f} window=({a:g}, {b:g})")]

    errs = physical_space_crosscheck(replace(ecfg, epsilon=1e-3))
    write_csv(cfg.output_dir / f"crosscheck_{tag}.csv",
              ["t", "max_abs_err"], zip(errs["t"], errs["max_abs_err"]))
    worst = errs["max_discrepancy"]
    checks.append(("crosscheck", worst < CROSSCHECK_BOUND,
                   f"max err {worst:.2e} (bound {CROSSCHECK_BOUND:.0e})"))
    return checks


def _run_instability_p1(cfg: RunConfig) -> list:
    from .evolve import ode_blowup_instability

    # under `all` cfg holds the shared default p, so fall back to this
    # command's own default unless p was given
    p = cfg["p"] if "p" in cfg.given else _INSTABILITY_P1_DEFAULT_P
    rep = ode_blowup_instability(p, kappa=cfg["kappa"])
    rows = [(p, a, s, rep["expected_slope"])
            for a, s in rep["slopes"].items()]
    write_csv(cfg.output_dir / f"instability_p{p:g}.csv",
              ["p", "a", "slope", "expected_slope"], rows)
    exp = rep["expected_slope"]
    worst = np.max([abs(s - exp) for s in rep["slopes"].values()])
    ok = worst < 0.25 * exp
    return [("divergence_slopes", ok,
             f"expected {exp:.4g}, worst offset {worst:.2g}"),
            ("smallness", rep["smallness"] < 1.0,
             f"value {rep['smallness']:.4g}")]


def _run_modulate(cfg: RunConfig) -> list:
    from .chebgrid import ChebGrid
    from .modulation import fit_parameters, modulated_decay

    eps = cfg["epsilon"]
    grid = ChebGrid.make(cfg["N"])
    f = np.stack([
        eps * np.polynomial.legendre.legval(grid.y, (0.0, 1.0, 1.0, 0.5)),
        eps * np.polynomial.legendre.legval(grid.y, (0.5, 1.0, 1.0, 0.0))])
    baseline = (cfg["p"], cfg["T"], cfg["kappa"])
    state = fit_parameters(f, baseline, N=cfg["N"])
    write_csv(cfg.output_dir / f"modulation_{cfg['tag']}.csv",
              ["iter", "p", "T", "kappa", "l_g0", "l_f0", "l_f1", "correction_norm"],
              state.history)
    checks = [("modulation_converged", state.converged,
               f"iters={state.iterations} cnorm={state.correction_norm:.2e}")]
    if state.converged:
        fit = modulated_decay(f, baseline, state, N=cfg["N"])
        write_csv(cfg.output_dir / f"decay_{cfg['tag']}_modulated.csv",
                  ["tau", "norm_k", "norm_L2"],
                  zip(fit.taus, fit.norms, fit.l2_norms))
        checks.append(("modulated_decay",
                       fit.decays_at(-0.4),
                       f"rate={fit.fitted_rate:.3f} r2={fit.r_squared:.4f}"))
    return checks


def _run_appendixB(cfg: RunConfig) -> list:
    from .linop import appendixB_no_second_jordan_block

    out = appendixB_no_second_jordan_block()
    write_csv(cfg.output_dir / "appendixB.csv",
              ["quantity", "value"], sorted(out.items()))
    jump_err = abs(out["jump"] - out["jump_expected"])
    return [
        ("bounded_near_plus1", out["bounded_variation_at_plus1"] < 0.01,
         f"variation {out['bounded_variation_at_plus1']:.2e}"),
        ("sqrt_singularity", abs(out["d2_log_slope"] + 0.5) < 0.05,
         f"log-slope {out['d2_log_slope']:.3f}"),
        ("arctan_jump", jump_err < 1e-8,
         f"|jump - pi*prefactor| = {jump_err:.2e}"),
        ("ode_crosscheck", out["ode_crosscheck_err"] < 1e-8,
         f"|dv1 - ODE solution| = {out['ode_crosscheck_err']:.2e}"),
    ]


_DISPATCH = {
    "profile-check": _run_profile_check,
    "mode-scan": _run_mode_scan,
    "spectrum": _run_spectrum,
    "semigroup-check": _run_semigroup_check,
    "evolve": _run_evolve,
    "instability-p1": _run_instability_p1,
    "modulate": _run_modulate,
    "appendixB": _run_appendixB,
}


def run(cfg: RunConfig) -> int:
    """Execute a run configuration; returns the process exit code.
    ConfigError if the output directory cannot be created."""
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output_dir}: "
                          f"{exc.strerror or exc}") from None
    names = list(_DISPATCH) if cfg.command == "all" else [cfg.command]
    timings, checks = [], []
    for name in names:
        t0 = time.perf_counter()
        try:
            checks.extend(_DISPATCH[name](cfg))
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # LinAlgError is a ValueError; anything else (a missing module,
            # a programming error) is not a numerical result and propagates
            _write_manifest(cfg, timings, checks)
            print(f"numerical failure in {name}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except Exception:
            _write_manifest(cfg, timings, checks)
            raise
        timings.append((name, time.perf_counter() - t0))
    _write_manifest(cfg, timings, checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_PASS if all(ok for _, ok, _ in checks) else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    try:
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:   # run catches the commands' own ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
