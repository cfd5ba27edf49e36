"""Acceptance gate: every headline numerical claim at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture) so the full run
yields a twelve-line scoreboard, then asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from blowuplab.chebgrid import ChebGrid
from blowuplab.linop import StateVector


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_profile_fd_residuals(capsys):
    """4th-order FD residual of the blow-up family at 500 random cone points."""
    from blowuplab.profiles import (ConePoint, ProfileParams, eval_profile,
                                    pde_residual, sample_interior_cone_points)

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0))
    hs = (3.2e-2, 1.6e-2, 8e-3, 1e-3)
    worst_small, worst_order = 0.0, math.inf
    for p in (0.25, 0.5, 0.75, 1.0):
        params = ProfileParams(p=p, T=1.0, kappa=0.3, x0=0.1)

        def u(x, t, _pr=params):
            return eval_profile(_pr, ConePoint(x=x, t=t))[0]

        worst = {h: 0.0 for h in hs}
        for pt in sample_interior_cone_points(params, 500, rng):
            for h in hs:
                worst[h] = max(worst[h], pde_residual(u, pt, h))
        order = math.log(worst[hs[0]] / worst[hs[2]]) / math.log(hs[0] / hs[2])
        worst_order = min(worst_order, order)
        worst_small = max(worst_small, worst[1e-3])
    dt = time.perf_counter() - t0
    ok = worst_order >= 3.5 and worst_small < 1e-9 and dt < 5.0
    report(capsys, "criterion 01", ok,
           f"order>={worst_order:.2f}, max res(h=1e-3)={worst_small:.2e}, "
           f"{dt:.1f}s")


def test_criterion_02_singularity_location_roots(capsys):
    """Denominator zeros located to 1e-12 (bracketing sign change)."""
    from blowuplab.profiles import (exact_ss_denominator,
                                    find_denominator_zero,
                                    find_general_denominator_zero,
                                    general_riccati_denominator)

    t0 = time.perf_counter()
    tol = 1e-12

    def bracketed(lo, hi):
        # sign change across [y-tol, y+tol]; at a root with O(1) slope both
        # values may sit on the double-precision roundoff floor instead
        return lo * hi <= 0.0 or max(abs(lo), abs(hi)) < 1e-13

    ok = True
    details = []
    for c in (-5.0, 0.0, 5.0):
        y = find_denominator_zero(c)
        ok &= bracketed(exact_ss_denominator(c, y - tol),
                        exact_ss_denominator(c, y + tol))
        details.append(f"c={c:g}: y*={y:.12f}")
    for p in (0.5, 0.75):
        for c in (0.5, 1.0, 2.0):
            y = find_general_denominator_zero(p, c)
            ok &= bracketed(general_riccati_denominator(p, c, y - tol),
                            general_riccati_denominator(p, c, y + tol))
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(capsys, "criterion 02", ok,
           f"9 roots bracketed to 1e-12 ({details[0]}...), {dt:.2f}s")


def test_criterion_03_mode_scan_rectangle(capsys):
    """Connection defect over Re in [0,3], Im in [-3,3], step 0.1."""
    from blowuplab.modeanalysis import connection_defect, mode_scan

    t0 = time.perf_counter()
    ok = True
    n_viol = n_nan = 0
    for p in (0.25, 0.5, 0.75):
        for lam, defect in mode_scan(p).points:
            near = min(abs(lam), abs(lam - 1.0)) <= 0.05
            # a NaN defect fails either comparison: a violation
            n_nan += math.isnan(defect)
            n_viol += not (defect < 1e-6 if near else defect > 1e-3)
    ok &= n_viol == 0
    # stability of the classification under doubling of the series length
    for lam in (0.0, 1.0, 0.5, 1.5 + 1.0j):
        d1 = connection_defect(0.5, lam, N=40)
        d2 = connection_defect(0.5, lam, N=80)
        ok &= (d1 < 1e-6) == (d2 < 1e-6)
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    report(capsys, "criterion 03", ok,
           f"3 x 1891 points, {n_viol} violations ({n_nan} NaN), "
           f"N-doubling stable, {dt:.0f}s")


def test_criterion_04_degenerate_case_mode_structure(capsys):
    """p = 1: double analytic candidate at 0, simple mode at 1, 1-n ladder."""
    from blowuplab.modeanalysis import (connection_defect,
                                        default_lambda_grid, mode_scan,
                                        smooth_candidate_defects)

    t0 = time.perf_counter()
    d0 = smooth_candidate_defects(1.0, 0.0)
    d1 = smooth_candidate_defects(1.0, 1.0)
    ok = len(d0) == 2 and max(d0) < 1e-6        # two defect-free candidates
    ok &= len(d1) == 1 and d1[0] < 1e-6         # lambda = 1 is simple
    ok &= connection_defect(1.0, -1.0) < 1e-6   # next rung of lambda = 1 - n
    # strip Re > -1: no other defect-free points
    grid = default_lambda_grid(re_min=-0.75, re_max=3.0, im_max=3.0, step=0.25)
    n_viol = n_nan = 0
    for lam, defect in mode_scan(1.0, lambda_grid=grid).points:
        near = min(abs(lam), abs(lam - 1.0)) <= 0.05
        n_nan += math.isnan(defect)
        # a NaN defect counts as a violation
        n_viol += math.isnan(defect) or (not near and defect <= 1e-3)
    ok &= n_viol == 0
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(capsys, "criterion 04", ok,
           f"candidates (2,1), ladder at -1, {n_viol} strip violations "
           f"({n_nan} NaN), {dt:.0f}s")


def test_criterion_05_eigen_triple_residuals(capsys):
    """(0, f0), (0, g0), (1, f1) certified as eigen-triples at N = 64."""
    from blowuplab.linop import eigen_triple_residuals

    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.25, 0.5, 0.75, 0.9):
        res = eigen_triple_residuals(p, N=64)
        worst = max(worst, max(res.values()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-7 and dt < 10.0
    report(capsys, "criterion 05", ok,
           f"max relative residual {worst:.2e} over 4 values of p, {dt:.1f}s")


def test_criterion_06_riesz_projector_structure(capsys):
    """Riesz projectors from a sorted Schur form and one Sylvester solve:
    ranks, idempotency, mutual annihilation."""
    from blowuplab.linop import riesz_projectors_for

    t0 = time.perf_counter()
    grid = ChebGrid.make(64)
    P0, r0, P1, r1, _ = riesz_projectors_for(0.75, grid, omega0=0.5)
    e0 = np.linalg.norm(P0 @ P0 - P0) / np.linalg.norm(P0)
    e1 = np.linalg.norm(P1 @ P1 - P1) / np.linalg.norm(P1)
    cross = np.linalg.norm(P0 @ P1)
    dt = time.perf_counter() - t0
    ok = ((r0, r1) == (2, 1) and max(e0, e1) < 1e-8 and cross < 1e-7
          and dt < 30.0)
    report(capsys, "criterion 06", ok,
           f"ranks ({r0},{r1}), idempotency {max(e0, e1):.2e}, "
           f"|P0 P1| = {cross:.2e}, {dt:.1f}s")


def test_criterion_07_gap_and_semigroup(capsys):
    """Spectral gap robust in N; exp(tau L) respects the splitting."""
    from blowuplab.linop import measured_gap, semigroup_action_check

    t0 = time.perf_counter()
    gaps = {N: measured_gap(0.75, N) for N in (48, 96)}
    g48, g96 = gaps[48], gaps[96]
    ok = 0.0 < g48 <= 0.5 and abs(g48 - g96) <= 0.1 * max(g48, g96)
    out = semigroup_action_check(0.75, ChebGrid.make(64), seed=0)
    ok &= out["err_P1"] < 1e-6 and out["err_P0"] < 1e-6
    ok &= out["stable_slope"] <= -0.9 * out["omega0"]
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(capsys, "criterion 07", ok,
           f"omega0 = {g48:g}/{g96:g} (N=48/96), err_P1 {out['err_P1']:.1e}, "
           f"err_P0 {out['err_P0']:.1e}, stable slope {out['stable_slope']:.3f}"
           f", {dt:.0f}s")


def test_criterion_08_free_wave_dissipativity(capsys):
    """Rayleigh quotient of the shifted free operator over random states."""
    from blowuplab.linop import free_wave_dissipativity_check

    t0 = time.perf_counter()
    worst = free_wave_dissipativity_check(ChebGrid.make(64), trials=200, seed=0)
    dt = time.perf_counter() - t0
    ok = worst <= -0.5 + 1e-3 and dt < 10.0
    report(capsys, "criterion 08", ok,
           f"max quotient {worst:.3f} over 200 states, {dt:.1f}s")


@pytest.mark.slow
def test_criterion_09_parameter_fitting(capsys):
    """Modulation fit converges; displacement linear in epsilon; the fitted
    data decay without any projection."""
    from blowuplab.linop import measured_gap
    from blowuplab.modulation import fit_parameters, modulated_decay

    t0 = time.perf_counter()
    baseline = (0.75, 1.0, 0.0)
    grid = ChebGrid.make(64)
    dps, ok, decay_details = [], True, []
    for eps in (1e-5, 1e-4):
        f = StateVector(
            q1=eps * np.polynomial.legendre.legval(grid.y, (0.0, 1.0, 1.0, 0.5)),
            q2=eps * np.polynomial.legendre.legval(grid.y, (0.5, 1.0, 1.0, 0.0)))
        st = fit_parameters(f, baseline, N=64, tol=1e-8)
        ok &= st.converged and st.iterations <= 30
        ok &= st.correction_norm < 1e-8
        dps.append(abs(st.p_star - baseline[0]))
        fit = modulated_decay(f, baseline, st, N=64)
        omega0 = measured_gap(st.p_star, 64)
        ok &= fit.fitted_rate <= -0.8 * omega0 and fit.r_squared >= 0.98
        decay_details.append(f"rate {fit.fitted_rate:.2f} r2 {fit.r_squared:.3f}")
    slope = math.log10(dps[1] / dps[0])
    ok &= abs(slope - 1.0) < 0.1
    dt = time.perf_counter() - t0
    ok &= dt < 600.0
    report(capsys, "criterion 09", ok,
           f"displacement slope {slope:.3f}, decay {'; '.join(decay_details)}, "
           f"{dt:.0f}s")


def test_criterion_10_near_ode_instability(capsys):
    """p -> 1: data approach the pure-ODE family yet diverge at rate
    |p-1| sqrt(2) from every shifted linear solution."""
    from blowuplab.evolve import ode_blowup_instability

    t0 = time.perf_counter()
    small = {}
    ok = True
    for p in (0.99, 0.999):
        rep = ode_blowup_instability(p)
        small[p] = rep["smallness"]
        exp = rep["expected_slope"]
        for a, s in rep["slopes"].items():
            ok &= abs(s - exp) < 0.1 * exp
    ok &= small[0.999] < small[0.99]
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(capsys, "criterion 10", ok,
           f"smallness {small[0.99]:.3g} -> {small[0.999]:.3g}, slopes within "
           f"10% of |p-1|*sqrt(2), {dt:.1f}s")


def test_criterion_11_closed_form_mode_asymptotics(capsys):
    """Boundary behaviour of the explicit second generalized mode."""
    from blowuplab.linop import appendixB_no_second_jordan_block

    t0 = time.perf_counter()
    out = appendixB_no_second_jordan_block()
    jump_err = abs(out["jump"] - out["jump_expected"])
    dt = time.perf_counter() - t0
    ok = (out["bounded_variation_at_plus1"] < 0.01
          and abs(out["d2_log_slope"] + 0.5) < 0.05
          and jump_err < 1e-8 and dt < 1.0)
    report(capsys, "criterion 11", ok,
           f"variation {out['bounded_variation_at_plus1']:.2e}, log-slope "
           f"{out['d2_log_slope']:.3f}, jump error {jump_err:.1e}, {dt:.2f}s")


def test_criterion_12_physical_space_crosscheck(capsys):
    """Similarity-variable and physical-space solvers agree on the cone."""
    from blowuplab.evolve import EvolveConfig, physical_space_crosscheck

    t0 = time.perf_counter()
    cfg = EvolveConfig(p=0.9, N=128, epsilon=1e-3, tau_max=8.0)
    out = physical_space_crosscheck(cfg)
    dt = time.perf_counter() - t0
    ok = out["max_discrepancy"] < 1e-4 and dt < 120.0
    report(capsys, "criterion 12", ok,
           f"max |u_phys - u_sim| = {out['max_discrepancy']:.2e} up to "
           f"t = 0.5 T, {dt:.0f}s")
