"""Profiles of the weak spectral inequality, decay curves, truncation and
weighted projections."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg

import critform as cf
from critform import resolvent, weak_ineq
from critform.errors import (
    BadConfig,
    ExcessivityFailure,
    KernelMismatch,
    SolverFailure,
    ViolationFound,
)

from conftest import count_calls, shifted


def test_single_vertex_profile_exact(single_vertex):
    r = np.geomspace(1e-6, 2.0, 60)
    prof = cf.alpha_profile(single_vertex, r_grid=r, seed=0)
    exact = np.maximum(1.0 - r, 0.0)
    assert np.max(np.abs(prof.alpha_cert - exact)) <= 1e-9
    assert np.max(np.abs(prof.alpha_lb - exact)) <= 1e-9
    assert prof.alpha_base == pytest.approx(1.0, rel=1e-12)
    assert prof.mode == "hardy"


def test_two_path_poincare_profile_exact(two_path):
    r = np.geomspace(1e-6, 3.0, 60)
    prof = cf.alpha_profile(two_path, r_grid=r, mode="poincare", seed=0)
    exact = np.maximum((2.0 - r) / 4.0, 0.0)
    assert np.max(np.abs(prof.alpha_cert - exact)) <= 1e-9
    assert np.max(np.abs(prof.alpha_lb - exact)) <= 1e-9


def test_profile_certificate_is_monotone_and_sandwiched():
    for seed in range(6):
        form = cf.random_tree_form(24, seed=seed)
        prof = cf.alpha_profile(form, seed=seed)
        assert np.all(np.diff(prof.alpha_cert) <= 1e-12)          # nonincreasing
        assert np.all(prof.alpha_lb <= prof.alpha_cert + 1e-12)   # sandwich
        assert np.all(prof.alpha_cert <= prof.alpha_base + 1e-12)
        assert prof.alpha_cert[-1] == pytest.approx(0.0, abs=1e-15)  # r > total mass


def test_profile_certificate_sound_against_brute_force():
    """Spot-check soundness: no random f beats the certified constant."""
    form = cf.random_tree_form(10, seed=3)
    prof = cf.alpha_profile(form, seed=3)
    rng = np.random.default_rng(99)
    act = form.active
    mu = form.active_measure
    for _ in range(300):
        f = np.zeros(form.n)
        f[act] = rng.standard_normal(act.size)
        q = cf.evaluate(form, f)
        mass = float(np.sum(f[act] ** 2 * mu))
        sup2 = float(np.max(np.abs(f[act])) ** 2)
        for k in (0, len(prof.r_grid) // 2, -1):
            r = prof.r_grid[k]
            assert mass <= prof.alpha_cert[k] * q + r * sup2 + 1e-9 * max(mass, 1.0)


def test_poincare_mode_requires_harmonic_h(pinned_path):
    with pytest.raises(KernelMismatch):
        cf.alpha_profile(pinned_path, mode="poincare", seed=0)


def test_poincare_kernel_gate_applies_the_echoed_tolerance():
    # a free path with zero potential: L h is of the size of the noise on h = 1
    form = cf.build_form({"vertices": [f"v{i}" for i in range(6)],
                          "edges": [[f"v{i}", f"v{i + 1}", 1.0] for i in range(5)]})
    h = 1.0 + 1e-12 * np.random.default_rng(0).standard_normal(6)
    cf.alpha_profile(form, h=h, mode="poincare", seed=0)
    with cf.job_tolerances({"tol_exc": 1e-16}), pytest.raises(KernelMismatch):
        cf.alpha_profile(form, h=h, mode="poincare", seed=0)


def test_hardy_mode_requires_trivial_kernel(two_path):
    with pytest.raises(KernelMismatch, match="nontrivial kernel"):
        cf.alpha_profile(two_path, mode="hardy", seed=0)
    # lambda_min = 1e-12 lies below tau = 1e-12 * norm bound (about 2e-12)
    with pytest.raises(KernelMismatch, match="nontrivial kernel"):
        cf.alpha_profile(shifted(two_path, 1e-12), mode="hardy", seed=0)


def test_hardy_kernel_check_fails_closed_on_a_failed_solve(single_vertex, monkeypatch):
    # a failed supersolution solve proves nothing about the kernel
    def fail(*args, **kwargs):
        raise SolverFailure("forced")
    monkeypatch.setattr(weak_ineq, "_solve", fail)
    with pytest.raises(KernelMismatch, match="nontrivial kernel"):
        cf.alpha_profile(single_vertex, mode="hardy", seed=0)


def test_hardy_kernel_check_ignores_a_spread_measure():
    # conjugating by h = 2^-index spreads mu over 80 octaves: the row sums of
    # M^-1 |Q| reach 8e11, 1e-12 of which exceeds lambda_min, while the pencil
    # spectrum stays in [0.0062, 3.99]
    path = cf.dirichlet_path(40)
    form = cf.ground_state_transform(path, 2.0 ** -np.arange(path.n)).form
    assert form.operator_norm_bound > 1e11
    lam = scipy.linalg.eigvalsh(form.active_form_matrix.toarray(), np.diag(form.active_measure))
    assert 5e-3 < lam[0] and lam[-1] < 4.0
    prof = cf.alpha_profile(form, mode="hardy", seed=0)
    assert np.all(np.isfinite(prof.alpha_cert)) and np.all(prof.alpha_cert >= 0)


def test_profile_input_validation(single_vertex):
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, mode="weird", seed=0)
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, r_grid=[0.5, 0.25], seed=0)  # decreasing
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, h=np.zeros(1), seed=0)


def test_profile_levels_along_exhaustion():
    exh = cf.dirichlet_path_exhaustion(radii=(10, 20, 40))
    profiles = cf.alpha_profile_levels(exh)
    assert len(profiles) == 3
    for R, prof in profiles:
        assert prof.alpha_base > 0
    # larger level, weaker inequality: alpha_base grows like the level spectral gap shrinks
    bases = [p.alpha_base for _, p in profiles]
    assert bases[0] < bases[1] < bases[2]


# --- decay curves -------------------------------------------------------------

def constant_profile(a, r_lo=1e-30):
    grid = np.geomspace(r_lo, 1.0, 16)
    flat = np.full(grid.size, float(a))
    return cf.AlphaProfile(r_grid=grid, alpha_cert=flat, alpha_lb=flat,
                           mode="hardy", alpha_base=float(a), budget_exhausted=False)


def test_decay_closed_form_for_flat_profile():
    for a in (0.3, 1.0, 4.0):
        t = np.array([0.05, 0.5, 2.0, 10.0])
        curve = cf.decay_rate(constant_profile(a), t)
        assert np.max(np.abs(curve.xi - np.exp(-2.0 * t / a))) <= 1e-9


def test_decay_curve_monotone_nonincreasing(single_vertex):
    prof = cf.alpha_profile(single_vertex, seed=0)
    t = np.linspace(0.05, 3.0, 12)
    curve = cf.decay_rate(prof, t)
    assert np.all(np.diff(curve.xi) <= 1e-12)
    assert np.all(curve.xi > 0)


def test_decay_reads_alpha_base_below_the_grid():
    # xi(50) = e^-100 lies far below the grid's bottom of 1e-3, where
    # alpha_base = 1 bounds alpha
    prof = constant_profile(1.0, r_lo=1e-3)
    (xi,) = cf.decay_rate(prof, [50.0]).xi
    assert xi == pytest.approx(np.exp(-100.0), rel=1e-9)
    # alpha = 1 on the grid and alpha_base = 2 below it: xi(t) = e^-2t while
    # t < -log(1e-3)/2 (on the grid) and e^-t once t > -log(1e-3); where even
    # 5e-324 satisfies the bound, that smallest positive double is returned
    prof = dataclasses.replace(prof, alpha_base=2.0)
    xi = cf.decay_rate(prof, [1.0, 3.0, 50.0, 745.0]).xi
    assert xi[:3] == pytest.approx([np.exp(-2.0), np.exp(-6.0), np.exp(-50.0)], rel=1e-9)
    assert xi[3] == 5e-324


def test_decay_reaches_the_bottom_of_a_deep_grid():
    # xi(10) = exp(-400) ~ 1.9e-174 lies inside the grid, but near it the
    # bisection's lo * hi falls below the smallest subnormal
    grid = np.geomspace(1e-200, 1.0, 60)
    flat = np.full(grid.size, 0.05)
    prof = cf.AlphaProfile(r_grid=grid, alpha_cert=flat, alpha_lb=flat, mode="hardy",
                           alpha_base=0.05, budget_exhausted=False)
    t = np.array([5.0, 10.0])
    curve = cf.decay_rate(prof, t)
    assert curve.xi == pytest.approx(np.exp(-2.0 * t / 0.05), rel=1e-9)


def test_decay_ends_on_a_subnormal_bracket():
    # xi(18.2) = exp(-728) ~ 2.6e-316 is subnormal: the bisection stops at
    # adjacent floats, whose relative gap exceeds XI_REL_WIDTH there
    grid = np.geomspace(1e-320, 1.0, 60)
    flat = np.full(grid.size, 0.05)
    prof = cf.AlphaProfile(r_grid=grid, alpha_cert=flat, alpha_lb=flat, mode="hardy",
                           alpha_base=0.05, budget_exhausted=False)
    (xi,) = cf.decay_rate(prof, [18.2]).xi
    assert -0.5 * 0.05 * np.log(xi) <= 18.2 < -0.5 * 0.05 * np.log(np.nextafter(xi, 0.0))
    assert xi == pytest.approx(np.exp(-728.0), rel=1e-6)


def test_decay_zero_profile_collapses():
    grid = np.geomspace(1e-20, 1.0, 8)
    prof = cf.AlphaProfile(r_grid=grid, alpha_cert=np.zeros(8), alpha_lb=np.zeros(8),
                           mode="hardy", alpha_base=0.0, budget_exhausted=False)
    curve = cf.decay_rate(prof, [0.1, 1.0])
    assert np.all(curve.xi == 0.0)


def test_verify_decay_accepts_true_bound():
    base = cf.random_tree_form(20, seed=7)
    rng = np.random.default_rng(7)
    g = np.zeros(base.n)
    g[base.active] = rng.uniform(0.5, 2.0, base.n_active)
    h = cf.resolvent_apply(base, g, 1.0)
    form = shifted(base, 1.0)            # h is excessive for the shifted form
    prof = cf.alpha_profile(form, h=h, seed=7)
    r_lo = min(float(prof.r_grid[0]), np.exp(-2.0 * 10.0 / prof.alpha_base - 12.0))
    grid = np.geomspace(r_lo, float(prof.r_grid[-1]), 101)
    prof = cf.alpha_profile(form, h=h, r_grid=grid, seed=7)
    curve = cf.decay_rate(prof, [0.1, 1.0, 10.0])
    assert curve.mode == "hardy"
    rep = cf.verify_decay(form, h, curve, n_samples=40, seed=7)
    assert rep.passed
    assert rep.min_margin_rel > -1e-8
    assert rep.n_checks == 3 * 41


@pytest.mark.parametrize("seed", range(3))
def test_verify_decay_checks_poincare_curves_off_the_kernel(seed):
    # a poincare-mode xi bounds only f mu-orthogonal to h, and T_t h = h never
    # decays: the samples are projected off h and h itself is not checked
    form, h = _critical_form(6 + 7 * seed, seed)
    curve = cf.decay_rate(cf.alpha_profile(form, h=h, mode="poincare", seed=seed),
                          [0.1, 0.5, 1.0])
    assert curve.mode == "poincare"
    rep = cf.verify_decay(form, h, curve, n_samples=40, seed=seed)
    assert rep.passed and rep.min_margin_rel > 0
    assert rep.n_checks == 3 * 40


def _decay_reference(form, h, curve, n_samples, seed, tol_rel=1e-8):
    """Per-(t, sample) loop through semigroup_apply: the minimum margin per t,
    the check count and the last violation in (t, sample) order."""
    act, mu = form.active, form.active_measure
    h_act = h[act]
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(act.size) for _ in range(n_samples)] + [h_act.copy()]
    margins, worst, n_checks = [], None, 0
    for t, xi_t in zip(curve.t_grid, curve.xi):
        t_margin = np.inf
        for x in samples:
            f = np.zeros(form.n)
            f[act] = x
            y = cf.semigroup_apply(form, f, float(t))[act]
            lhs = float(np.sum(y * y * mu))
            rhs = float(xi_t) * (float(np.sum(x * x * mu)) + float(np.max(np.abs(x) / h_act)) ** 2)
            n_checks += 1
            t_margin = min(t_margin, (rhs - lhs) / rhs)
            if lhs > rhs * (1 + tol_rel):
                worst = (float(t), x, lhs, rhs)
        margins.append(t_margin)
    return np.array(margins), n_checks, worst


def test_verify_decay_matches_per_sample_loop(block_cap, monkeypatch):
    base = cf.random_tree_form(20, seed=7)
    form = shifted(base, 1.0)
    h = cf.resolvent_apply(base, np.where(base.boundary_mask, 0.0, 1.0), 1.0)
    prof = cf.alpha_profile(form, h=h, r_grid=np.geomspace(1e-8, 10.0, 81), seed=7)
    curve = cf.decay_rate(prof, [0.1, 1.0, 3.0])
    monkeypatch.setattr(weak_ineq, "DECAY_FLAG_MARGIN", 0.5)
    for seed in (0, 7):
        rep = cf.verify_decay(form, h, curve, n_samples=40, seed=seed)
        margins, n_checks, worst = _decay_reference(form, h, curve, 40, seed)
        assert worst is None and rep.passed
        assert rep.n_checks == n_checks
        assert rep.min_margin_rel == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)
        tight = [(float(t), m) for t, m in zip(curve.t_grid, margins) if m < 0.5]
        assert [t for t, _ in rep.tight_points] == [t for t, _ in tight]
        assert np.allclose([m for _, m in rep.tight_points], [m for _, m in tight],
                           rtol=1e-12, atol=1e-12)


def test_verify_decay_krylov_block_and_witness(block_cap):
    form = cf.random_tree_form(cf.resolvent.DENSE_SEMIGROUP_CUTOFF + 20, seed=4)
    h = np.ones(form.n)                   # excessive: the potential is positive
    valid = cf.DecayCurve(t_grid=np.array([0.05, 0.3]), xi=np.ones(2))
    rep = cf.verify_decay(form, h, valid, n_samples=12, seed=2)
    margins, n_checks, worst = _decay_reference(form, h, valid, 12, 2)
    assert worst is None and rep.n_checks == n_checks == 26
    assert rep.min_margin_rel == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)

    # violated at both times, so the witness must come from the later one
    tight = cf.DecayCurve(t_grid=np.array([0.05, 0.3, 1.0]), xi=np.array([0.78, 0.5, 0.9]))
    with pytest.raises(ViolationFound) as caught:
        cf.verify_decay(form, h, tight, n_samples=12, seed=2)
    t, x, lhs, rhs = _decay_reference(form, h, tight, 12, 2)[2]
    witness = caught.value.witness
    assert witness["t"] == t == 0.3
    assert np.array_equal(witness["f"], x)
    assert witness["lhs"] == pytest.approx(lhs, rel=1e-12)
    assert witness["rhs"] == pytest.approx(rhs, rel=1e-12)


def test_verify_decay_without_samples():
    form = cf.random_tree_form(15, seed=2)
    curve = cf.DecayCurve(t_grid=np.array([0.5, 2.0]), xi=np.array([1.0, 0.8]))
    rep = cf.verify_decay(form, np.ones(form.n), curve, n_samples=0)
    margins, n_checks, _ = _decay_reference(form, np.ones(form.n), curve, 0, 0)
    assert rep.n_checks == n_checks == 2       # h alone, at each time
    assert rep.min_margin_rel == pytest.approx(margins.min(), rel=1e-12)


def test_verify_decay_gates_excessivity_without_resolvent_solves(monkeypatch):
    form = cf.random_tree_form(15, seed=2)
    curve = cf.DecayCurve(t_grid=np.array([0.5, 2.0]), xi=np.array([1.0, 0.8]))
    solves = count_calls(monkeypatch, resolvent, "solve_spd")
    rep = cf.verify_decay(form, np.ones(form.n), curve, n_samples=10, seed=2)
    assert rep.passed
    assert solves == []


def test_verify_decay_needs_a_free_vertex(all_dirichlet):
    curve = cf.DecayCurve(t_grid=np.array([1.0]), xi=np.array([1.0]))
    with pytest.raises(BadConfig):
        cf.verify_decay(all_dirichlet, np.zeros(2), curve)


def test_verify_decay_rejects_non_excessive_h(two_path):
    h = np.array([1.0, 0.2])   # strict interior dip: not excessive
    curve = cf.DecayCurve(t_grid=np.array([1.0]), xi=np.array([1.0]))
    with pytest.raises(ExcessivityFailure):
        cf.verify_decay(two_path, h, curve)


# --- truncation and projection -------------------------------------------------

def test_truncation_band_properties():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(50) * 3
    h = np.abs(rng.standard_normal(50)) + 0.1
    t = cf.truncation_map(f, h)
    assert np.all(np.abs(t) <= h + 1e-15)
    assert np.allclose(np.abs(t), np.minimum(np.abs(f), h))
    assert np.allclose(cf.truncation_map(t, h), t)   # idempotent
    with pytest.raises(BadConfig):
        cf.truncation_map(f, h[:10])
    with pytest.raises(BadConfig):
        cf.truncation_map(f, -h)


def test_plain_projection_removes_h_component(triangle):
    rng = np.random.default_rng(1)
    h = np.abs(rng.uniform(0.5, 2.0, 3))
    w = np.abs(rng.uniform(0.5, 2.0, 3))
    f = rng.standard_normal(3)
    res = cf.poincare_project(triangle, f, h, w=w)
    assert res.mode == "plain"
    ip = float(np.sum(res.projected * h * w * triangle.measure))
    assert ip == pytest.approx(0.0, abs=1e-12)
    # projected + constant * h reassembles f
    assert np.allclose(res.projected + res.constant * h, f)


def test_truncated_projection_zeroes_band_limited_component(triangle):
    rng = np.random.default_rng(2)
    h = np.abs(rng.uniform(0.5, 2.0, 3))
    f = 5.0 * rng.standard_normal(3)
    res = cf.poincare_project(triangle, f, h, truncated=True)
    assert res.mode == "truncated"
    band = cf.truncation_map(f - res.constant * h, h)
    ip = float(np.sum(band * h * triangle.measure))
    assert abs(ip) <= 1e-9 * float(np.sum(h * h * triangle.measure))
    assert np.allclose(res.projected, band)


# --- the certificate against dense pencil eigensolves ---------------------------

def _pencil_oracle(form, h, mode, sites, r_grid):
    """alpha_cert as the per-r loop computed it: one dense generalized eigh per
    r and candidate psi (w = 1), clamped at 0, minimized, made monotone."""
    act, mu = form.active, form.active_measure
    h_act = h[act]
    W = mu.copy()
    S = float(np.sum(W * h_act * h_act))
    Q = form.active_form_matrix.toarray()
    P = np.eye(act.size) if mode == "hardy" else scipy.linalg.null_space((W * h_act)[None, :])
    Q_sub = P.T @ Q @ P
    m = Q_sub.shape[0]

    def top(d):
        return scipy.linalg.eigh(P.T @ np.diag(d) @ P, Q_sub, eigvals_only=True,
                                 subset_by_index=[m - 1, m - 1])[0]

    base = max(top(W), 0.0)
    cert = []
    for r in r_grid:
        best = min(base, max(top(W - r * W / S), 0.0))
        for s in sites:
            spike = np.zeros(act.size)
            spike[s] = 1.0 / h_act[s] ** 2
            best = min(best, max(top(W - r * spike), 0.0))
        cert.append(best)
    return base, np.minimum.accumulate(cert)


def _profile_and_sites(monkeypatch, form, **kwargs):
    """Run alpha_profile and record the spike sites its certificate used."""
    seen = []
    real = weak_ineq._certificate

    def spy(lam, Y, h_act, S, sites, r_grid):
        seen.append(list(sites))
        return real(lam, Y, h_act, S, sites, r_grid)

    monkeypatch.setattr(weak_ineq, "_certificate", spy)
    prof = cf.alpha_profile(form, **kwargs)
    monkeypatch.setattr(weak_ineq, "_certificate", real)
    return prof, seen[0]


def _assert_matches_oracle(form, h, prof, sites):
    base, oracle = _pencil_oracle(form, h, prof.mode, sites, prof.r_grid)
    assert prof.alpha_base == pytest.approx(base, rel=1e-12)
    assert np.all(np.abs(prof.alpha_cert - oracle) <= 1e-12 * oracle)   # exact 0 where 0
    assert np.all(prof.alpha_cert >= prof.alpha_lb)


def _critical_form(n, seed):
    """Random connected graph with the signed potential that makes a random
    positive h harmonic: L h = 0, so h spans the kernel."""
    base = cf.random_connected_form(n, seed=seed)
    h = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    i, j = base.edge_index[:, 0], base.edge_index[:, 1]
    flux = np.zeros(n)
    np.add.at(flux, i, base.weights * (h[i] - h[j]))
    np.add.at(flux, j, base.weights * (h[j] - h[i]))
    form = cf.GraphForm.from_arrays(base.vertices, base.edge_index, base.weights,
                                    base.measure, -flux / (base.measure * h))
    return form, h


@pytest.mark.parametrize("seed", range(4))
def test_certificate_matches_dense_pencils_hardy(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 41))
    base = cf.random_connected_form(n, seed=100 + seed, signed_potential=True)
    h = cf.resolvent_apply(base, rng.uniform(0.5, 2.0, n), 1.0)
    form = shifted(base, 1.0)
    prof, sites = _profile_and_sites(monkeypatch, form, h=h, seed=seed, budget=(6, 30))
    assert sites
    _assert_matches_oracle(form, h, prof, sites)


@pytest.mark.parametrize("seed", range(4))
def test_certificate_matches_dense_pencils_poincare(seed, monkeypatch):
    form, h = _critical_form(8 + 7 * seed, seed)
    assert np.any(form.potential < 0)
    prof, sites = _profile_and_sites(monkeypatch, form, h=h, mode="poincare", seed=seed)
    assert sites and prof.mode == "poincare"
    _assert_matches_oracle(form, h, prof, sites)


def test_certificate_matches_dense_pencils_on_one_dimension(single_vertex, two_path,
                                                            monkeypatch):
    # hardy mode on one vertex and poincare mode on two: M0 is 1 x 1
    h = np.array([0.7])
    prof, sites = _profile_and_sites(monkeypatch, single_vertex, h=h, seed=0)
    assert sites == [0]
    _assert_matches_oracle(single_vertex, h, prof, sites)
    h = np.ones(2)
    prof, sites = _profile_and_sites(monkeypatch, two_path, h=h, mode="poincare", seed=0)
    _assert_matches_oracle(two_path, h, prof, sites)


def test_certificate_with_repeated_top_eigenvalue(monkeypatch):
    # two identical disjoint paths: every pencil eigenvalue is double, so a
    # spike leaves the top eigenvalue of the other copy in place
    edges = [["a0", "a1", 1.0], ["a1", "a2", 2.0], ["b0", "b1", 1.0], ["b1", "b2", 2.0]]
    potential = {"a0": 0.5, "a1": 0.2, "a2": 0.3, "b0": 0.5, "b1": 0.2, "b2": 0.3}
    form = cf.build_form({"vertices": sorted(potential), "edges": edges,
                          "potential": potential})
    h = np.ones(6)
    prof, sites = _profile_and_sites(monkeypatch, form, h=h, seed=1)
    assert sites
    _assert_matches_oracle(form, h, prof, sites)
    lam, _ = weak_ineq._pencil(form.active_form_matrix.toarray(), np.ones(6), None)
    assert lam[-2] == pytest.approx(lam[-1], rel=1e-13)
    # no spike lowers the top, so the spread candidate alone sets the certificate
    spread = np.maximum(1.0 - prof.r_grid / 6.0, 0.0) * prof.alpha_base
    assert np.allclose(prof.alpha_cert, spread, rtol=1e-12, atol=0.0)


def test_spike_orthogonal_to_top_eigenvector():
    # disjoint components: the top pencil direction lives on "a" alone, so a
    # spike on the other component has no component along it
    form = cf.build_form({"vertices": ["a", "b", "c"], "edges": [["b", "c", 1.0]],
                          "potential": {"a": 0.5, "b": 1.0, "c": 1.0}})
    Q = form.active_form_matrix.toarray()
    W = np.ones(3)
    lam, Y = weak_ineq._pencil(Q, W, None)
    assert lam[-1] == pytest.approx(2.0, rel=1e-14)
    assert Y[1, -1] == 0.0 and Y[2, -1] == 0.0
    r = np.geomspace(1e-3, 10.0, 9)
    cert = weak_ineq._certificate(lam, Y, np.ones(3), 3.0, [1, 2], r)
    _, oracle = _pencil_oracle(form, np.ones(3), "hardy", [1, 2], r)
    assert np.allclose(cert, np.maximum(1.0 - r / 3.0, 0.0) * 2.0, rtol=1e-14)
    assert np.all(np.abs(np.minimum.accumulate(cert) - oracle) <= 1e-12 * oracle)


def test_spike_tops_edge_cases_and_row_blocks():
    def dense(lam, z, rho):
        return np.linalg.eigvalsh(np.diag(lam) - rho * np.outer(z, z))[-1]

    rho = np.geomspace(1e-6, 1e3, 12)[None, :]
    # one eigenvalue: closed form
    out = weak_ineq._spike_tops(np.array([2.0]), np.array([[0.5]]), rho)
    assert np.allclose(out, 2.0 - rho * 0.25, rtol=1e-15)
    # z orthogonal to the top eigenvector, and a repeated top eigenvalue
    lam = np.array([0.5, 1.0, 3.0])
    assert np.all(weak_ineq._spike_tops(lam, np.array([[1.0, 2.0, 0.0]]), rho) == 3.0)
    lam = np.array([0.5, 3.0, 3.0])
    assert np.all(weak_ineq._spike_tops(lam, np.array([[1.0, 2.0, 0.7]]), rho) == 3.0)
    # zero component on the second eigenvector: the top never drops below lam[-2]
    lam = np.array([0.5, 1.0, 3.0])
    out = weak_ineq._spike_tops(lam, np.array([[0.3, 0.0, 0.7]]), rho)
    expect = [dense(lam, np.array([0.3, 0.0, 0.7]), x) for x in rho[0]]
    assert np.allclose(out[0], expect, rtol=1e-13)
    assert out.min() >= 1.0
    # 300 eigenvalues and 3 x 100 problems: two row blocks of at most 2^16 entries
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(0.0, 4.0, 300))
    Z = rng.standard_normal((3, 300)) / np.sqrt(300)
    rho = np.geomspace(1e-4, 1e2, 100)[None, :] * np.array([[1.0], [0.3], [7.0]])
    out = weak_ineq._spike_tops(lam, Z, rho)
    for j, g in [(0, 0), (0, 99), (1, 50), (2, 10), (2, 70), (2, 99)]:
        exact = dense(lam, Z[j], rho[j, g])
        assert abs(out[j, g] - exact) <= 1e-12 * exact
        assert lam[-2] <= out[j, g] <= lam[-1]
        # the upper end of the bracket: the secular function is not positive there
        assert 1.0 - rho[j, g] * np.sum(Z[j] ** 2 / (lam - out[j, g])) <= 0.0


def _spike_tops_reference(lam, Z, rho):
    """The plain bisection the fixed-weight iteration replaces."""
    m = lam.size
    z2 = Z * Z
    spike = np.repeat(np.arange(Z.shape[0]), rho.shape[1])
    rho = rho.ravel()
    if m == 1:
        return (lam[0] - rho * z2[spike, 0]).reshape(Z.shape[0], -1)
    eps = np.finfo(float).eps
    lo = np.full(rho.size, lam[-2])
    hi = np.full(rho.size, lam[-1])
    moving = (z2[spike, -1] > 0) & (rho > 0) & (lam[-2] < lam[-1])
    rows = max(1, (1 << 16) // m)
    for start in range(0, rho.size, rows):
        live = start + np.flatnonzero(moving[start:start + rows])
        # 2*53 halvings shrink any bracket below 2^-106 * lam[-1]; most rows
        # stop earlier, at a width of two ulps of the root
        for _ in range(106):
            if live.size == 0:
                break
            mid = lo[live] + 0.5 * (hi[live] - lo[live])
            T = lam - mid[:, None]
            np.reciprocal(T, out=T)
            s = (T @ z2.T)[np.arange(live.size), spike[live]]
            above = rho[live] * s < 1.0
            lo[live[above]] = mid[above]
            hi[live[~above]] = mid[~above]
            wide = hi[live] - lo[live] > 2 * eps * np.maximum(np.abs(lo[live]), np.abs(hi[live]))
            live = live[wide]
    return hi.reshape(Z.shape[0], -1)


def _spike_cases():
    """Adversarial (lam, Z) for the secular solver, each run over rho from
    1e-18 to 1e6."""
    rng = np.random.default_rng(12)
    cases = []
    for m in (2, 3, 40):
        lam = np.sort(rng.uniform(0.0, 4.0, m))
        Z = rng.standard_normal((3, m)) / np.sqrt(m)
        cases.append(("random", lam, Z))
        close = lam.copy()
        close[-2] = close[-1] * (1 - 1e-14)
        cases.append(("close-top-pair", close, Z))
        Z0 = Z.copy()
        Z0[:, -2] = 0.0
        cases.append(("zero-second-component", lam, Z0))
        Zt = Z.copy()
        Zt[:, -1] = 1e-150
        cases.append(("tiny-top-component", lam, Zt))
    # mixed signs and a top pair far above the rest of the spectrum
    lam = np.array([-3.0, -1.0, 0.5, 2.0, 2.5])
    cases.append(("signed-spectrum", lam, rng.standard_normal((2, 5))))
    # 2000 eigenvalues: 32 rows per block of 2^16 entries, so 3 x 49 rows
    # span five blocks
    cases.append(("row-blocks", np.sort(rng.uniform(0.0, 4.0, 2000)),
                  rng.standard_normal((3, 2000)) / np.sqrt(2000)))
    return cases


@pytest.mark.parametrize("case", _spike_cases(), ids=lambda c: f"{c[0]}-m{c[1].size}")
def test_spike_tops_match_bisection_and_keep_the_bracket(case):
    _, lam, Z = case
    rho = np.tile(np.geomspace(1e-18, 1e6, 49), (Z.shape[0], 1))
    out = weak_ineq._spike_tops(lam, Z, rho)
    ref = _spike_tops_reference(lam, Z, rho)
    assert np.all(np.abs(out - ref) <= 4 * np.spacing(np.abs(ref)))
    assert np.all((lam[-2] <= out) & (out <= lam[-1]))
    # the solver's own sign test (reciprocal, then the sum) at each value:
    # the root is not above it, so the value is an upper bound
    spike = np.repeat(np.arange(Z.shape[0]), rho.shape[1])
    T = lam - out.ravel()[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.reciprocal(T, out=T)
        s = (T * (Z * Z)[spike]).sum(axis=1)
    assert not np.any(rho.ravel() * s < 1.0)


def test_large_form_gets_the_refined_certificate(monkeypatch):
    form = cf.random_tree_form(450, seed=2)
    h = np.ones(form.n)
    r = np.array([1e-3, 1e-1, 10.0, 200.0])
    prof, sites = _profile_and_sites(monkeypatch, form, r_grid=r, seed=2)
    assert "refinement" not in prof.note and "gradient search skipped" in prof.note
    _assert_matches_oracle(form, h, prof, sites)
    assert prof.alpha_cert[1] < prof.alpha_base * (1 - 1e-3)   # refined, not flat


def test_hardy_profile_makes_one_dense_eigensolve(monkeypatch):
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module, name in [(scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (scipy.linalg, "eig"), (np.linalg, "eig")]:
        counting(module, name)
    form = cf.random_tree_form(40, seed=1)
    cf.alpha_profile(form, r_grid=np.geomspace(1e-8, 50.0, 101), seed=1)
    assert len(calls) <= 1


def test_violation_gate_runs_before_the_clamp(monkeypatch):
    form = cf.random_tree_form(12, seed=4)
    real = weak_ineq._certificate
    monkeypatch.setattr(weak_ineq, "_certificate", lambda *args: 0.5 * real(*args))
    with pytest.raises(ViolationFound):
        cf.alpha_profile(form, seed=4)


def test_poincare_kernel_larger_than_h_is_a_kernel_mismatch():
    # two free components with zero potential: the kernel holds both of their
    # constants, so the form is singular on the complement of h = 1
    form = cf.build_form({"vertices": ["a", "b", "c", "d"],
                          "edges": [["a", "b", 1.0], ["c", "d", 1.0]]})
    with pytest.raises(KernelMismatch):
        cf.alpha_profile(form, mode="poincare", seed=0)


def _pencil_cases():
    two = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]})
    yield "two-path", two, np.ones(2), two.active_measure
    # the h pair is the top of M0, above its largest diagonal entry: it must
    # still be the one dropped
    k3 = cf.build_form({"vertices": ["a", "b", "c"],
                        "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["a", "c", 1.0]]})
    yield "triangle", k3, np.ones(3), np.array([4.0, 1.0, 1.0]) * k3.active_measure
    for n, seed in ((8, 0), (15, 1), (40, 2)):
        form, h = _critical_form(n, seed)
        yield f"critical-{n}", form, h, form.active_measure
    form, h = _critical_form(30, 3)
    w = np.random.default_rng(3).uniform(0.5, 2.0, 30)
    w[::3] = 0.0
    yield "w-zeros", form, h, w * form.active_measure
    w = np.zeros(30)
    w[[2, 11, 25]] = 1.0
    yield "w-on-three", form, h, w * form.active_measure
    # the shift that drops the h pair must follow the scale of M0
    yield "w-tiny", form, h, 1e-20 * form.active_measure


@pytest.mark.parametrize("case", _pencil_cases(), ids=lambda c: c[0])
def test_poincare_pencil_matches_the_null_space_reference(case):
    _, form, h, W = case
    Q = form.active_form_matrix.toarray()
    a = W * h
    P = scipy.linalg.null_space(a[None, :])
    ref = scipy.linalg.eigh(P.T @ np.diag(W) @ P, P.T @ Q @ P, eigvals_only=True)
    lam, Y = weak_ineq._pencil(Q, W, a)
    assert lam.shape == ref.shape == (form.n - 1,)
    assert np.all(np.abs(lam - ref) <= 1e-12 * abs(ref[-1]))
    assert np.all(np.abs(a @ Y) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(Y, axis=0))
    assert np.allclose(np.einsum("ij,ij->j", Y, Q @ Y), 1.0, rtol=1e-10)


# --- the batched gradient ascent --------------------------------------------------

def _ascent_reference(f, r, W, Q, h_act, P, iters):
    """The per-start projected-gradient loop the batched ascent replaces."""
    def normalize(g):
        sup = float(np.max(np.abs(g) / h_act))
        return None if sup <= 0 or not np.isfinite(sup) else g / sup

    val, improved_at_cap, step = -np.inf, False, 0.5
    for it in range(iters):
        A_f, B_f = float(np.sum(f * f * W)), float(f @ Q @ f)
        if B_f <= 0:
            break
        cur = (A_f - r) / B_f
        grad = (2.0 * W * f * B_f - (A_f - r) * 2.0 * (Q @ f)) / (B_f * B_f)
        if P is not None:
            grad = P @ (P.T @ grad)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0:
            break
        trial = normalize(f + step * grad / gnorm)
        if trial is None:
            break
        if P is not None:
            trial = normalize(P @ (P.T @ trial))
            if trial is None:
                break
        A_t, B_t = float(np.sum(trial * trial * W)), float(trial @ Q @ trial)
        new = (A_t - r) / B_t if B_t > 0 else -np.inf
        if new > cur + 1e-15:
            f = trial
            improved_at_cap = it == iters - 1 and new > val * (1 + 1e-9) + 1e-15
            val = new
            step = min(step * 1.5, 1e3)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return f, improved_at_cap


@pytest.mark.parametrize("mode", ["hardy", "poincare"])
def test_batched_ascent_matches_per_start_loop(mode):
    for seed in range(3):
        if mode == "hardy":
            form = shifted(cf.random_connected_form(15 + 5 * seed, seed=seed,
                                                    signed_potential=True), 1.0)
            h = np.random.default_rng(seed).uniform(0.5, 2.0, form.n)
            P = None
        else:
            form, h = _critical_form(15 + 5 * seed, seed)
        W = form.active_measure
        Q = form.active_form_matrix.toarray()
        a = None
        if mode == "poincare":
            # the reference projects with the null-space basis P of a = W h
            a = W * h
            P = scipy.linalg.null_space(a[None, :])
        rng = np.random.default_rng(seed)
        starts, ok = weak_ineq._admissible(rng.standard_normal((12, form.n)), h, a)
        assert ok.all()
        r = np.repeat(np.geomspace(1e-6, float(np.sum(W * h * h)), 4), 3)
        for iters in (3, 30, 200):
            ends, exhausted = weak_ineq._ascent(starts, r, W, Q, h, a, iters)
            ref = [_ascent_reference(f, rr, W, Q, h, P, iters) for f, rr in zip(starts, r)]
            assert np.allclose(ends, [f for f, _ in ref], rtol=1e-9, atol=1e-12)
            assert exhausted == any(flag for _, flag in ref)
            if iters == 3:
                assert exhausted


def _ascent_lockstep_reference(F, r, W, Q, h_act, a, iters):
    """The lockstep loop that recomputed f Q, sum f^2 W and q(f) on every
    iteration, before the ascent carried them."""
    F = F.copy()
    k = F.shape[0]
    step = np.full(k, 0.5)
    val = np.full(k, -np.inf)
    at_cap = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for it in range(iters):
        f, rr = F[live], r[live]
        Qf = f @ Q
        A = np.sum(f * f * W, axis=1)
        B = np.einsum("ij,ij->i", f, Qf)
        with np.errstate(all="ignore"):
            cur = (A - rr) / B
            grad = (2.0 * W * f * B[:, None] - 2.0 * (A - rr)[:, None] * Qf) / (B * B)[:, None]
            if a is not None:
                grad = grad - np.outer(grad @ a, a / (a @ a))
            gnorm = np.linalg.norm(grad, axis=1)
            trial, ok = weak_ineq._admissible(f + step[live, None] * grad / gnorm[:, None],
                                              h_act, a)
            ok &= (B > 0) & (gnorm != 0)
            A_t = np.sum(trial * trial * W, axis=1)
            B_t = np.einsum("ij,ij->i", trial, trial @ Q)
            new = np.where(B_t > 0, (A_t - rr) / B_t, -np.inf)
        acc = ok & (new > cur + 1e-15)
        rej = ok & ~acc
        up, down = live[acc], live[rej]
        at_cap[up] = (it == iters - 1) & (new[acc] > val[up] * (1 + 1e-9) + 1e-15)
        val[up] = new[acc]
        F[up] = trial[acc]
        step[up] = np.minimum(step[up] * 1.5, 1e3)
        step[down] *= 0.5
        live = live[acc | (rej & (step[live] >= 1e-12))]
        if live.size == 0:
            break
    return F, bool(np.any(at_cap))


@pytest.mark.parametrize("mode", ["hardy", "poincare"])
def test_ascent_carrying_products_is_bit_identical_to_lockstep_loop(mode):
    for seed in range(3):
        if mode == "hardy":
            form = shifted(cf.random_connected_form(15 + 5 * seed, seed=seed,
                                                    signed_potential=True), 1.0)
            h = np.random.default_rng(seed).uniform(0.5, 2.0, form.n)
        else:
            form, h = _critical_form(15 + 5 * seed, seed)
        W = form.active_measure
        Q = form.active_form_matrix.toarray()
        a = None if mode == "hardy" else W * h
        starts, _ = weak_ineq._admissible(np.random.default_rng(seed).standard_normal((12, form.n)),
                                          h, a)
        r = np.repeat(np.geomspace(1e-6, float(np.sum(W * h * h)), 4), 3)
        for iters in (3, 30, 200):
            ends, at_cap = weak_ineq._ascent(starts, r, W, Q, h, a, iters)
            ref_ends, ref_at_cap = _ascent_lockstep_reference(starts, r, W, Q, h, a, iters)
            assert np.array_equal(ends, ref_ends)
            assert at_cap == ref_at_cap
