"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest -v` (add `-s` to see the verdict lines for passing
criteria too).  Every criterion can give both verdicts.  Where a published
number or an asymptotic rate is out of reach of any correct program, the
criterion asserts the part of the claim a correct program meets and prints
the rest as "reported, not asserted":

* criterion 3 compares the endemic equilibrium with the published
  quantities that agree with the published R0, since the published point
  is not an equilibrium of the published model;
* criterion 6 measures the L1 order after removing the h^2 term of the
  error, which the raw order approaches 2 - alpha only from below;
* criteria 8 and 9 assert a monotone approach at every order, and the ball
  only at orders 0.9 and 1.0, where the t^(-alpha) tail of the Caputo
  solution has entered it by T = 2000.
"""

import math

import numpy as np

from fracstab import (
    FractionalOrder,
    GFunction,
    ModelDefinition,
    SampledSignal,
    UniformGrid,
    identity_g,
    l1_caputo,
    lemma_certificate,
    solve_fde_abm,
)
from fracstab.cli import certify_order
from fracstab.models import MODELS, sica, teiv
from oracles import baseline_params, solve_fde_gl, solve_ode_rk4

FIG_INITIAL = np.array([596597.568, 74574.696, 37287.348, 37287.348])
FIG_GRID = UniformGrid(0.0, 2000.0 / 5000, 5000)
FIG_ORDERS = (0.5, 0.7, 0.9, 1.0)


def verdict(number: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_reproduction_number_regression():
    low = sica.sica_r0(baseline_params())
    high = sica.sica_r0(baseline_params(beta=0.866))
    ok = abs(low - 0.2900) <= 5e-4 and abs(high - 3.8049) <= 5e-3
    verdict(1, ok, f"r0 low={low:.5f} (target 0.2900), high={high:.5f} (target 3.8049)")


def test_criterion_02_disease_free_equilibrium():
    df = sica.sica_disease_free(baseline_params())
    rel = abs(df[0] - 7.4575e5) / 7.4575e5
    ok = rel <= 1e-4 and (df[1:] == 0.0).all()
    verdict(2, ok, f"S0={df[0]:.2f}, relative error {rel:.2e} (limit 1e-4)")


def endemic_quantities(p, x):
    """Ratios of an endemic state fixed by the model: C/I = phi/xi2,
    A/I = rho/xi1, (lambda - mu S)/I = q, and S/N = 1/R0 under standard
    incidence."""
    S, I, C, A = x
    return {
        "C/I": C / I,
        "A/I": A / I,
        "(lambda-mu*S)/I": (p.lambda_ - p.mu * S) / I,
        "S/N": S / x.sum(),
    }


def test_criterion_03_endemic_equilibrium_vs_published():
    # published components, with the last entry read as 3.0861e3 per the
    # structural identity A = rho*I/(exit rate of A)
    published = np.array([0.8909e5, 4.1489e4, 3.9748e5, 3.0861e3])
    p = baseline_params(beta=0.866)
    eq = sica.sica_endemic(p)
    # The published point is not an equilibrium of the published model: every
    # endemic state has S/N = 1/R0 = 0.2628 for the published R0 = 3.8049
    # (criterion 1), while the published point has S/N = 0.1677 and an rhs
    # residual of about a third of lambda.  Its C/I, A/I and removal balance
    # do agree with the model, so those, and S/N = 1/3.8049, are the
    # published quantities the computed point is held to.
    reference = endemic_quantities(p, published)
    reference["S/N"] = 1.0 / 3.8049
    computed = endemic_quantities(p, eq)
    rel = {k: abs(computed[k] - reference[k]) / abs(reference[k]) for k in reference}
    ok = max(rel.values()) <= 0.02
    residual = np.abs(sica.sica_field(p)(published.tolist())).max() / p.lambda_
    verdict(
        3, ok,
        "endemic equilibrium "
        + np.array2string(eq, precision=1, separator=", ")
        + " vs published quantities: "
        + ", ".join(f"{k} {computed[k]:.5g}/{reference[k]:.5g}" for k in reference)
        + f"; max relative gap {max(rel.values()):.2e} (limit 0.02)"
        + "; reported, not asserted: componentwise gap to the published point "
        + np.array2string(np.abs(eq - published) / published, precision=3, separator=", ")
        + f", published point rhs residual {residual:.2f} lambda",
    )


def sica_model_baseline(beta=0.066):
    return sica.sica_model(baseline_params(beta=beta))


def test_criterion_04_classical_degeneracy():
    model = sica_model_baseline()
    grid = UniformGrid(0.0, 1e-2, 2500)
    abm = solve_fde_abm(model, FractionalOrder(1.0), FIG_INITIAL, grid)
    rk4 = solve_ode_rk4(model, FIG_INITIAL, grid)
    gap = np.abs(abm.states - rk4.states).max() / np.abs(rk4.states).max()
    verdict(4, gap <= 1e-3, f"ABM(alpha=1) vs RK4 relative sup-norm gap {gap:.2e} (limit 1e-3)")


def test_criterion_05_scheme_cross_validation():
    model = ModelDefinition(1, lambda u: [-v for v in u], "scalar_decay", ("u",))
    grid = UniformGrid(0.0, 1e-3, 1000)
    gaps = {}
    for alpha in (0.3, 0.5, 0.7, 0.9):
        order = FractionalOrder(alpha)
        abm = solve_fde_abm(model, order, [1.0], grid)
        gl = solve_fde_gl(model, order, [1.0], grid)
        gaps[alpha] = abs(abm.component(0)[-1] - gl.component(0)[-1])
    ok = all(g <= 2e-2 for g in gaps.values())
    verdict(5, ok, "ABM vs GL endpoint gaps "
            + ", ".join(f"alpha={a}: {g:.1e}" for a, g in gaps.items()) + " (limit 2e-2)")


def test_criterion_06_l1_convergence_order():
    alpha = 0.5
    errs = []
    for n in (100, 200, 400):
        grid = UniformGrid(0.0, 1.0 / n, n)
        t = grid.times()
        out = l1_caputo(SampledSignal(grid, t ** 2), FractionalOrder(alpha))
        exact = 2.0 * t[1:] ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(np.abs(out.values[1:] - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    # The error peaks at t = 1, where it is A h^(2-alpha) - B h^2 + O(h^4)
    # (Stynes, O'Riordan & Gracia 2017), so the raw order approaches 2 - alpha
    # from below and never reaches it.  4 e(h/2) - e(h) cancels the h^2 term.
    reduced = [4.0 * errs[i + 1] - errs[i] for i in range(2)]
    extrapolated = math.log2(reduced[0] / reduced[1])
    ok = abs(extrapolated - (2.0 - alpha)) <= 1e-3
    verdict(6, ok, f"extrapolated L1 order {extrapolated:.8f} (required within 1e-3 of "
            f"2-alpha = {2.0 - alpha}); raw orders {orders[0]:.4f}, {orders[1]:.4f}")


def test_criterion_07_lemma_certificate_suite():
    rng = np.random.default_rng(2024)
    grid = UniformGrid(0.0, 1e-3, 1000)
    t = grid.times()
    gs = (identity_g(), GFunction(np.sqrt, "sqrt"), GFunction(np.log1p, "log1p"))
    total = failed = 0
    for _ in range(100):
        base = rng.uniform(1.0, 5.0)
        vals = np.full_like(t, base)
        for _ in range(3):
            vals += rng.uniform(0.05, 0.25) * np.sin(
                rng.uniform(0.5, 8.0) * t + rng.uniform(0.0, 2.0 * math.pi)
            )
        sig = SampledSignal(grid, vals)
        xbar = rng.uniform(0.5, 6.0)
        for g in gs:
            for alpha in (0.3, 0.6, 0.9):
                cert = lemma_certificate(sig, g, xbar, FractionalOrder(alpha))
                total += 1
                failed += 0 if cert["pass"] else 1
    verdict(7, failed == 0, f"{total - failed}/{total} comparison-inequality certificates passed")


# Rises of the relative distance below this floor are rounding: at order 1
# the distance is already ~1e-15 by T/2.
ROUNDING_FLOOR = 1e-12
# Orders at which the final distance is held to the ball.  At orders 0.5 and
# 0.7 the Caputo solution decays along the algebraic t^(-alpha) tail of the
# Mittag-Leffler function and is still outside the ball at T = 2000; step
# sizes 0.8, 0.4 and 0.2 give the same final distance to four digits, so
# the gap is the exact solution's, not the solver's.
BALL_ORDERS = (0.9, 1.0)


# Figure evidence by (beta, order): criterion 11 reuses two of criterion 8's
# solves.  Tests only read the cached evidence.
_FIGURE_EVIDENCE = {}


def figure_evidence(beta, alpha):
    """The figure solve at (beta, alpha), its target, and their ``certify_order``
    entry, as ``report`` prints it: V1 at the equilibrium of the predicted
    regime (V0 at the disease-free one)."""
    key = (beta, alpha)
    if key not in _FIGURE_EVIDENCE:
        spec, p = MODELS["sica"], baseline_params(beta=beta)
        target = spec.predicted(p)
        functional = sica.sica_v1(p, target)
        traj = solve_fde_abm(sica.sica_model(p), FractionalOrder(alpha), FIG_INITIAL, FIG_GRID)
        entry = certify_order(functional, traj, target, spec.regime(p))
        _FIGURE_EVIDENCE[key] = traj, target, entry
    return _FIGURE_EVIDENCE[key]


def run_figure_experiment(beta, ball, regime):
    lines, ok = [], True
    for alpha in FIG_ORDERS:
        traj, target, entry = figure_evidence(beta, alpha)
        passed = entry["verdict"] == f"{regime}, certified"
        # the per-node distance series, recomputed as the benchmark's checks do
        scale = max(float(np.abs(target).max()), 1.0)
        distances = np.abs(traj.states - target).max(axis=1) / scale
        dist = entry["final_relative_distance"]
        agrees = float(distances[-1]) == dist
        tail = distances[FIG_GRID.n_steps // 2:]
        rise = float(np.diff(tail).max())
        approaching = rise < ROUNDING_FLOOR and (tail[-1] < tail[0] or tail[0] < ROUNDING_FLOOR)
        if alpha in BALL_ORDERS:
            in_ball = dist <= ball
            ball_note = f"({'<=' if in_ball else '>'} {ball})"
        else:
            in_ball = True
            ball_note = f"(ball {ball} reported, not asserted: t^(-alpha) tail)"
        ok = ok and passed and agrees and approaching and in_ball
        lines.append(
            f"theta={alpha}: {entry['verdict']}, "
            f"approach on [T/2, T] {'monotone' if approaching else 'NOT monotone'} "
            f"(largest node-to-node change {rise:.1e}, rise floor {ROUNDING_FLOOR:.0e}), "
            f"final distance {dist:.4f} {ball_note}"
            + ("" if agrees else f", but the trajectory ends at distance {distances[-1]!r}")
        )
    return ok, "; ".join(lines)


def test_criterion_08_disease_free_convergence_evidence():
    ok, detail = run_figure_experiment(beta=0.066, ball=0.01, regime="disease-free")
    verdict(8, ok, detail)


def test_criterion_09_endemic_convergence_evidence():
    ok, detail = run_figure_experiment(beta=0.866, ball=0.02, regime="endemic")
    verdict(9, ok, detail)


def random_teiv(rng):
    return teiv.TeivParams(
        lambda_=rng.uniform(1.0, 10.0),
        mu_T=rng.uniform(0.05, 0.2),
        mu_E=rng.uniform(0.1, 0.5),
        mu_I=rng.uniform(0.1, 0.5),
        mu_V=rng.uniform(0.5, 3.0),
        rho=rng.uniform(0.01, 0.1),
        gamma=rng.uniform(0.1, 0.5),
        k=rng.uniform(1.0, 20.0),
        beta=rng.uniform(0.001, 0.02),
        alpha1=rng.uniform(0.0, 0.1),
        alpha2=rng.uniform(0.0, 0.1),
        alpha3=rng.uniform(0.0, 0.01),
    )


def test_criterion_10_teiv_property_suite():
    rng = np.random.default_rng(555)
    grid = UniformGrid(0.0, 100.0 / 800, 800)
    cert_failures = 0
    draws = 0
    while draws < 20:
        p = random_teiv(rng)
        if teiv.teiv_r0(p) <= 1.0:
            continue
        draws += 1
        chronic = teiv.teiv_equilibria(p)[1]
        L = teiv.teiv_lyapunov(p, chronic)
        model = teiv.teiv_model(p)
        x0 = chronic * np.array([1.3, 0.7, 1.2, 0.8])
        for alpha in (0.8, 1.0):
            traj = solve_fde_abm(model, FractionalOrder(alpha), x0, grid)
            entry = certify_order(L, traj, chronic, "endemic")
            cert_failures += 0 if entry["verdict"] == "endemic, certified" else 1

    spectral_failures = 0
    checked = 0
    while checked < 100:
        p = random_teiv(rng)
        if abs(teiv.teiv_r0(p) - 1.0) <= 1e-6:
            continue
        checked += 1
        spectral_failures += 0 if MODELS["teiv"].spectral_consistent(p) else 1

    ok = cert_failures == 0 and spectral_failures == 0
    verdict(10, ok, f"decrescence failures {cert_failures}/40, "
            f"spectral threshold failures {spectral_failures}/100")


def test_criterion_11_figure_shape_note():
    # node-wise replication of the published trajectory figures is not
    # attempted: the initial conditions and horizon behind them are
    # unpublished.  Criteria 8-9 are the agreed substitutes: decrescence and
    # a monotone approach on [T/2, T] at every order, and the equilibrium
    # ball at orders 0.9 and 1.0 (orders 0.5 and 0.7 have not entered it by
    # T = 2000, so their distance is reported only).  The remark
    # that smaller derivative orders converge faster is reported via the
    # 5%-ball entry time in the report command, never asserted, and indeed
    # the measured entry times do not support it at long horizons.
    entries = {alpha: figure_evidence(0.066, alpha)[2]["ball_entry_time_5pct"]
               for alpha in (0.7, 1.0)}
    reported = all(v is None or v > 0 for v in entries.values())
    verdict(11, reported, "figure replication out of scope by agreement; "
            f"5%-ball entry times reported (not asserted): {entries}")
