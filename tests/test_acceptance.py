"""Acceptance suite: published-value reproduction and property checks.

Each test prints one pass/fail line (run with ``pytest -v -s``).  Reference
eigenvalues and rates come from the published benchmark tables for the
stress-velocity scheme; tolerances are fixed here, not calibrated.
"""

import numpy as np
import pytest

import stokeseig.mesh as mm
from helpers import (dense_pencil_eigenvalues, permute_edges,
                     single_triangle_mesh, solve_problem)
from stokeseig.adapt import afem_loop
from stokeseig.assembly import J
from stokeseig.estimator import compute_indicators
from stokeseig.fields import DiscreteField, theta_postprocess
from stokeseig.mesh import (build_lshape_mesh, build_square_mesh, patches,
                            tag_bottom_fixed)
from stokeseig.quadrature import quadrature, reference_monomial_integral
from stokeseig.refbasis import NED1, NED2, ned_basis
from stokeseig.spaces import (MIXED_BOTTOM_FIXED, SpaceDescriptor,
                              interpolate_ned, l2_project_velocity)
from stokeseig.study import ExperimentConfig, run_study

# Table 1, first-kind stress, k = 0: columns N = 20, 30, 40, 50
TABLE1_K0 = {
    20: [13.07172, 22.92407, 22.92407, 31.92158, 38.18216],
    30: [13.07948, 22.98365, 22.98365, 31.99380, 38.37946],
    40: [13.08235, 23.00442, 23.00442, 32.01930, 38.44657],
    50: [13.08371, 23.01402, 23.01402, 32.03116, 38.47729],
}
SQUARE_LIMITS = [13.08617, 23.03109, 23.03109, 32.05239, 38.53136]
MIXED_LIMITS = [2.4674, 6.2799, 15.2090, 22.2065, 26.9479]
LSHAPE_LAMBDA1 = 32.13183


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def square_k0_study():
    cfg = ExperimentConfig(domain="bi_unit_square", ell=1, k=0,
                           N=(20, 30, 40, 50), nev=5)
    return run_study(cfg)


@pytest.fixture(scope="module")
def square_ned2_k1_study():
    cfg = ExperimentConfig(domain="bi_unit_square", ell=2, k=1,
                           N=(20, 30, 40, 50), nev=5)
    return run_study(cfg)


@pytest.fixture(scope="module")
def lshape_afem():
    mesh = build_lshape_mesh(4)
    return afem_loop(mesh, SpaceDescriptor(1, 0), target_index=0,
                     max_iterations=40, dof_cap=50_000, lambda_ref=LSHAPE_LAMBDA1)


def test_criterion_1_square_spectrum_table1(square_k0_study):
    report = square_k0_study
    worst_col = 0.0
    for row, N in enumerate(report.config.N):
        ref = np.array(TABLE1_K0[N])
        worst_col = max(worst_col, float(np.max(np.abs(report.lambdas[row] - ref) / ref)))
    extr_err = np.abs(report.extrapolated - SQUARE_LIMITS) / np.array(SQUARE_LIMITS)
    orders_ok = np.all((report.orders >= 1.7) & (report.orders <= 2.3))
    ok = worst_col < 5e-3 and extr_err.max() < 5e-4 and orders_ok
    _report("criterion 1 (square spectrum, lowest order)", ok,
            f"column dev {worst_col:.2e} (<5e-3), extr dev {extr_err.max():.2e} (<5e-4), "
            f"orders {np.round(report.orders, 2)} in [1.7, 2.3]")


def test_criterion_2_square_higher_order_table2(square_ned2_k1_study):
    report = square_ned2_k1_study
    extr_err = np.abs(report.extrapolated - SQUARE_LIMITS) / np.array(SQUARE_LIMITS)
    orders_ok = np.all((report.orders >= 3.6) & (report.orders <= 4.4))
    ok = extr_err.max() < 1e-5 and orders_ok
    _report("criterion 2 (square spectrum, second kind order 2)", ok,
            f"extr dev {extr_err.max():.2e} (<1e-5), orders {np.round(report.orders, 2)} in [3.6, 4.4]")


def test_criterion_3_double_eigenvalue(square_k0_study, square_ned2_k1_study):
    worst = 0.0
    for report in (square_k0_study, square_ned2_k1_study):
        split = np.abs(report.lambdas[:, 1] - report.lambdas[:, 2]) / report.lambdas[:, 1]
        worst = max(worst, float(split.max()))
    _report("criterion 3 (double eigenvalue exactly double)", worst < 1e-6,
            f"max relative split {worst:.2e} (<1e-6)")


def test_criterion_4_circle_variational_crime():
    cfg = ExperimentConfig(domain="circle", ell=1, k=1, N=(10, 14, 20, 28), nev=5)
    report = run_study(cfg)
    lam1_err = abs(report.extrapolated[0] - 14.682) / 14.682
    order1 = report.orders[0]
    ok = lam1_err < 2e-3 and 1.7 <= order1 <= 2.3
    _report("criterion 4 (disk: polygonal-boundary limit on the rate)", ok,
            f"lambda1 extr {report.extrapolated[0]:.5f} dev {lam1_err:.2e} (<2e-3), "
            f"order {order1:.2f} in [1.7, 2.3] despite k=1")


def test_criterion_5_mixed_boundary_conditions():
    devs, lam1s = [], []
    for ell in (1, 2):
        cfg = ExperimentConfig(domain="unit_square", ell=ell, k=0,
                               bc=MIXED_BOTTOM_FIXED, N=(20, 30, 40, 50), nev=5)
        report = run_study(cfg)
        lam1s.append(abs(report.extrapolated[0] - 2.46740) / 2.46740)
        devs.append(np.abs(report.extrapolated - MIXED_LIMITS) / np.array(MIXED_LIMITS))
    ok = max(lam1s) < 5e-4 and max(float(d.max()) for d in devs) < 2e-3
    _report("criterion 5 (mixed boundary conditions)", ok,
            f"lambda1 devs {[f'{v:.1e}' for v in lam1s]} (<5e-4), "
            f"worst extr dev {max(float(d.max()) for d in devs):.2e} (<2e-3)")


def test_criterion_6_afem_rate_beats_uniform(lshape_afem):
    slope = lshape_afem.fitted_order
    dofs, errs = [], []
    for N in (4, 8, 16, 32):
        mesh = build_lshape_mesh(N)
        sol, pencil, _ = solve_problem(mesh, 1, 0, nev=3)
        dofs.append(pencil.layout.size)
        errs.append(abs(sol.eigenvalues[0] - LSHAPE_LAMBDA1))
    uniform_slope = float(np.polyfit(np.log(dofs), np.log(errs), 1)[0])
    ok = -1.25 <= slope <= -0.85 and abs(uniform_slope) <= 0.75
    _report("criterion 6 (adaptive rate restores first order in dof)", ok,
            f"adaptive slope {slope:.3f} in [-1.25, -0.85]; "
            f"uniform slope {uniform_slope:.3f}, magnitude <= 0.75")


def test_criterion_7_effectivity_band(lshape_afem):
    effs = np.array([r.effectivity for r in lshape_afem.iterations[3:]])
    ok = bool(np.all(effs >= 5e-3) and np.all(effs <= 1.0)
              and effs.max() / effs.min() <= 25.0)
    _report("criterion 7 (effectivity stays in band)", ok,
            f"effectivity in [{effs.min():.3g}, {effs.max():.3g}] within [5e-3, 1], "
            f"spread {effs.max() / effs.min():.2f}x (<=25x)")


def test_criterion_8_property_suite():
    failures = []

    # commuting diagram at 1e-10
    mesh = build_square_mesh(4, mm.UNIT_SQUARE)

    def tau(p):
        x, y = p
        return np.array([[np.sin(y), x ** 2], [np.cos(x), x * y]])

    def curl_tau(p):
        x, y = p
        return np.array([2 * x - np.cos(y), y])

    for ell, k in ((1, 0), (2, 1)):
        desc = SpaceDescriptor(ell, k)
        sig = DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, tau))
        vel = DiscreteField.velocity(mesh, k, l2_project_velocity(mesh, k, curl_tau))
        rule = quadrature(4)
        dev = np.abs(sig.curl_at(rule.points) - vel.values_at(rule.points)).max()
        if dev > 1e-10:
            failures.append(f"commuting diagram ({ell},{k}): {dev:.2e}")

    # unisolvence at 1e-12
    for family, orders in ((NED1, (0, 1, 2)), (NED2, (1, 2, 3))):
        for order in orders:
            basis = ned_basis(family, order)
            vand = basis.dof_values(basis.eval).T
            dev = np.abs(vand - np.eye(basis.dim)).max()
            if dev > 1e-12:
                failures.append(f"unisolvence {family}{order}: {dev:.2e}")

    # dense pencil oracle on the two-triangle mesh at 1e-9
    tiny = build_square_mesh(1, mm.UNIT_SQUARE)
    sol, pencil, _ = solve_problem(tiny, 1, 0, nev=4)
    dense = dense_pencil_eigenvalues(pencil)
    dev = np.abs(sol.eigenvalues - dense[:4]).max() / dense[0]
    if dev > 1e-9:
        failures.append(f"dense pencil oracle: {dev:.2e}")

    # K symmetry
    if abs(pencil.K.sp - pencil.K.sp.T).max() != 0.0:
        failures.append("pencil symmetry")

    # viscosity scaling lambda -> c lambda
    mesh6 = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    s1, _, _ = solve_problem(mesh6, 1, 0, nev=1, mu=1.0)
    s2, _, _ = solve_problem(mesh6, 1, 0, nev=1, mu=2.0)
    if abs(s2.eigenvalues[0] - 2 * s1.eigenvalues[0]) > 1e-9 * s2.eigenvalues[0]:
        failures.append("viscosity scaling")

    # edge renumbering invariance at 1e-9
    mesh4 = build_square_mesh(4, mm.BI_UNIT_SQUARE)
    perm = np.random.default_rng(23).permutation(mesh4.num_edges)
    sp1, _, _ = solve_problem(mesh4, 1, 0, nev=3)
    sp2, _, _ = solve_problem(permute_edges(mesh4, perm), 1, 0, nev=3)
    if (np.abs(sp1.eigenvalues - sp2.eigenvalues) / sp1.eigenvalues).max() > 1e-9:
        failures.append("edge renumbering invariance")

    # patch averaging reproduces constants exactly
    const = np.array([0.3, 0.8])
    u = DiscreteField.velocity(mesh4, 0, np.tile(const, mesh4.num_triangles))
    theta = theta_postprocess(u, patches(mesh4))
    if np.abs(theta.nodal_values - const).max() > 1e-13:
        failures.append("patch-average constants")

    # estimator vanishes on the constructed zero-residual input
    desc = SpaceDescriptor(1, 0)
    sig0 = DiscreteField.stress(mesh4, desc, interpolate_ned(mesh4, desc, lambda p: 1.5 * J))
    u0 = DiscreteField.velocity(mesh4, 0, np.tile([0.2, -0.1], mesh4.num_triangles))
    ind = compute_indicators(mesh4, sig0, u0, theta_postprocess(u0, patches(mesh4)))
    if ind.eta > 1e-12:
        failures.append(f"zero-residual estimator: {ind.eta:.2e}")

    # quadrature exactness at 1e-13
    for degree in range(1, 11):
        rule = quadrature(degree)
        for total in range(degree + 1):
            for i in range(total + 1):
                got = float(rule.weights @ (rule.points[:, 0] ** i
                                            * rule.points[:, 1] ** (total - i)))
                if abs(got - reference_monomial_integral(i, total - i)) > 1e-13:
                    failures.append(f"quadrature degree {degree}")

    _report("criterion 8 (property suite)", not failures,
            "all properties hold" if not failures else "; ".join(failures))
