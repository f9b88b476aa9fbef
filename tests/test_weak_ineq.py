"""Profiles of the weak spectral inequality, decay curves, truncation and
weighted projections."""
import numpy as np
import pytest

import critform as cf
from critform.errors import (
    BadConfig,
    ExcessivityFailure,
    GridTooCoarse,
    KernelMismatch,
    ViolationFound,
)

from conftest import shifted


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


def test_hardy_mode_requires_trivial_kernel(two_path):
    with pytest.raises(KernelMismatch):
        cf.alpha_profile(two_path, mode="hardy", seed=0)


def test_profile_input_validation(single_vertex):
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, mode="weird", seed=0)
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, r_grid=[0.5, 0.25], seed=0)  # decreasing
    with pytest.raises(BadConfig):
        cf.alpha_profile(single_vertex, h=np.zeros(1), seed=0)


def test_profile_levels_along_exhaustion():
    exh = cf.dirichlet_path_exhaustion(radii=(10, 20, 40))
    profiles = cf.alpha_profile_levels(exh, seed=0)
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


def test_decay_grid_too_coarse_raises():
    prof = constant_profile(1.0, r_lo=1e-3)
    with pytest.raises(GridTooCoarse):
        cf.decay_rate(prof, [50.0])   # needs xi ~ e^{-100}, far below 1e-3


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
    rep = cf.verify_decay(form, h, curve, n_samples=40, seed=7)
    assert rep.passed
    assert rep.min_margin_rel > -1e-8
    assert rep.n_checks == 3 * 41


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


def test_verify_decay_matches_per_sample_loop(block_cap):
    base = cf.random_tree_form(20, seed=7)
    form = shifted(base, 1.0)
    h = cf.resolvent_apply(base, np.where(base.boundary_mask, 0.0, 1.0), 1.0)
    prof = cf.alpha_profile(form, h=h, r_grid=np.geomspace(1e-8, 10.0, 81), seed=7)
    curve = cf.decay_rate(prof, [0.1, 1.0, 3.0])
    for seed in (0, 7):
        rep = cf.verify_decay(form, h, curve, n_samples=40, seed=seed, flag_margin=0.5)
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
    valid = cf.DecayCurve(t_grid=np.array([0.05, 0.3]), xi=np.ones(2), rel_tol=1e-10)
    rep = cf.verify_decay(form, h, valid, n_samples=12, seed=2)
    margins, n_checks, worst = _decay_reference(form, h, valid, 12, 2)
    assert worst is None and rep.n_checks == n_checks == 26
    assert rep.min_margin_rel == pytest.approx(margins.min(), rel=1e-12, abs=1e-12)

    # violated at both times, so the witness must come from the later one
    tight = cf.DecayCurve(t_grid=np.array([0.05, 0.3, 1.0]), xi=np.array([0.78, 0.5, 0.9]),
                          rel_tol=1e-10)
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
    curve = cf.DecayCurve(t_grid=np.array([0.5, 2.0]), xi=np.array([1.0, 0.8]), rel_tol=1e-10)
    rep = cf.verify_decay(form, np.ones(form.n), curve, n_samples=0)
    margins, n_checks, _ = _decay_reference(form, np.ones(form.n), curve, 0, 0)
    assert rep.n_checks == n_checks == 2       # h alone, at each time
    assert rep.min_margin_rel == pytest.approx(margins.min(), rel=1e-12)


def test_verify_decay_rejects_non_excessive_h(two_path):
    h = np.array([1.0, 0.2])   # strict interior dip: not excessive
    curve = cf.DecayCurve(t_grid=np.array([1.0]), xi=np.array([1.0]), rel_tol=1e-10)
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
