"""Weight generation, the two-sided verification gates, the positive-function
energy identity, and the conjugated form."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import critform as cf
from critform import hardy
from critform.errors import GreenDiverges, NonPositiveH, NonPositiveInput, SolverFailure

from conftest import active_vector


def test_weight_on_pinned_path_point_source(pinned_path):
    # g = delta_2: w(2) = 1 / G(2,2) = 1/2, zero elsewhere
    hw = cf.hardy_weight(pinned_path, {"2": 1.0}, seed=0)
    assert hw.alpha_used == 0.0
    assert hw.values[pinned_path.index("2")] == pytest.approx(0.5, rel=1e-10)
    assert hw.values[pinned_path.index("1")] == 0.0
    assert hw.verification.passed
    assert hw.verification.rho_sampled <= 1 + 1e-10
    assert hw.verification.pencil_lambda_max <= 1 + 1e-8


def test_weight_positive_for_positive_source(pinned_path):
    g = np.array([0.0, 1.0, 1.0, 1.0])
    hw = cf.hardy_weight(pinned_path, g, seed=1)
    act = pinned_path.active
    assert np.all(hw.values[act] > 0)
    assert hw.verification.passed


def test_weight_raises_on_critical_form(two_path):
    with pytest.raises(GreenDiverges, match="perturbed_hardy_bound"):
        cf.hardy_weight(two_path, np.ones(2), seed=0)


def test_weight_input_validation(pinned_path):
    with pytest.raises(NonPositiveInput):
        cf.hardy_weight(pinned_path, np.zeros(4), seed=0)
    with pytest.raises(NonPositiveInput):
        g = np.zeros(4)
        g[pinned_path.index("1")] = -1.0
        cf.hardy_weight(pinned_path, g, seed=0)


def test_single_vertex_weight_saturates(single_vertex):
    # q(f) = f^2, G g = g: w = 1 and the inequality is equality
    hw = cf.hardy_weight(single_vertex, np.ones(1), seed=0)
    assert hw.values[0] == pytest.approx(1.0, rel=1e-12)
    assert hw.verification.rho_sampled == pytest.approx(1.0, abs=1e-12)


def test_verify_rejects_oversized_weight(pinned_path):
    hw = cf.hardy_weight(pinned_path, {"2": 1.0})
    too_big = 1.5 * hw.values
    rep = cf.verify_hardy(pinned_path, too_big, seed=0)
    assert not rep.passed
    assert rep.pencil_lambda_max > 1 + 1e-8


def test_verify_pencil_and_sampling_agree(pinned_path):
    hw = cf.hardy_weight(pinned_path, {"2": 1.0})
    rep = cf.verify_hardy(pinned_path, hw.values, n_samples=2000, seed=3)
    # adversarial eigenvector samples make the sampled ratio sharp
    assert rep.rho_sampled == pytest.approx(rep.pencil_lambda_max, abs=1e-6)


def _rho_reference(form, w, n_samples, seed, alpha):
    """Per-sample Rayleigh-quotient loop over the random draws and the witness
    (Q + alpha M - theta W)^-1 W 1, theta = 1/(1 + tol_eig/2), solved dense."""
    act, mu = form.active, form.active_measure
    W = w[act] * mu
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(act.size) for _ in range(n_samples)]
    B = form.active_form_matrix.toarray() + alpha * np.diag(mu)
    samples.append(np.linalg.solve(B - np.diag(W) / (1 + 0.5e-8), W))
    rho = 0.0
    for x in samples:
        f = np.zeros(form.n)
        f[act] = x
        energy = cf.evaluate(form, f) + alpha * float(np.sum(x * x * mu))
        if energy > 0:
            rho = max(rho, float(np.sum(x * x * W)) / energy)
    return rho, len(samples)


def test_verify_matches_per_sample_loop(block_cap):
    for k in range(4):
        form = cf.random_tree_form(8 + 20 * k, seed=k)
        g = np.zeros(form.n)
        g[k] = 1.0
        hw = cf.hardy_weight(form, g)
        for seed, alpha, scale in ((0, 0.0, 1.0), (3, 0.0, 1.3), (5, 0.5, 1.0)):
            w = scale * hw.values
            rep = cf.verify_hardy(form, w, n_samples=60, seed=seed, alpha=alpha)
            rho, count = _rho_reference(form, w, 60, seed, alpha)
            assert rep.rho_sampled == pytest.approx(rho, rel=1e-12)
            assert rep.n_samples == count
            assert rep.passed == (scale == 1.0)


def test_verify_without_samples(pinned_path, all_dirichlet):
    w = cf.hardy_weight(pinned_path, {"2": 1.0}).values
    rep = cf.verify_hardy(pinned_path, w, n_samples=0)
    assert rep.n_samples == 1 and rep.rho_sampled == pytest.approx(rep.pencil_lambda_max)
    rep = cf.verify_hardy(all_dirichlet, np.zeros(2), n_samples=7)
    assert (rep.rho_sampled, rep.n_samples, rep.pencil_lambda_max) == (0.0, 7, None)
    assert "no non-Dirichlet vertex" in rep.note
    assert cf.ground_state_transform(all_dirichlet, np.ones(2)).validation_max_err == 0.0


def test_failed_proof_solve_fails_the_verification(pinned_path, monkeypatch):
    # the weight is sound, but a failed solve proves nothing and gives no witness
    w = cf.hardy_weight(pinned_path, {"2": 1.0}).values

    def fail(*args, **kwargs):
        raise SolverFailure("forced")
    monkeypatch.setattr(hardy, "_solve", fail)
    rep = cf.verify_hardy(pinned_path, w, n_samples=50)
    assert not rep.passed
    assert rep.pencil_lambda_max is None and rep.n_samples == 50
    assert rep.rho_sampled <= 1


def test_singular_energy_with_weight_mass_fails_the_verification(two_path):
    # Q of the free pair is singular and w has mass on its kernel:
    # f = 1 gives sum f^2 w mu = 1e-6 > 0 = q(f)
    rep = cf.verify_hardy(two_path, [1e-6, 0.0], n_samples=200)
    assert rep.pencil_lambda_max == np.inf and not rep.passed


# --- the supersolution proof of the pencil top -------------------------------

TOL_EIG = 1e-8


def _pencil_top(form, w, alpha):
    """Reference: largest eigenvalue of the dense pencil (W, Q + alpha M)."""
    mu = form.active_measure
    B = form.active_form_matrix.toarray() + alpha * np.diag(mu)
    return float(scipy.linalg.eigh(np.diag(w[form.active] * mu), B, eigvals_only=True)[-1])


@pytest.mark.parametrize("make", [
    lambda: cf.dirichlet_path(2000),
    lambda: cf.random_tree_form(2001, seed=3),
    lambda: cf.random_tree_form(2400, seed=4),
    lambda: cf.lattice(2, 50),
], ids=["path", "tree-2001", "tree-2400", "lattice2d"])
def test_verify_proves_at_every_size_without_dense_algebra(make, monkeypatch):
    form = make()
    g = np.zeros(form.n)
    g[form.active[form.n_active // 3]] = 1.0
    w = cf.hardy_weight(form, g).values

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve")
    for module, name in ((scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, refuse)
    tracemalloc.start()
    try:
        rep = cf.verify_hardy(form, w, n_samples=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.note == "" and rep.n_samples == 201
    # g is a point source, so W has rank one and the witness is the top direction
    assert rep.pencil_lambda_max == pytest.approx(1.0, abs=1e-12)
    assert peak < form.n_active ** 2        # a dense n x n block takes 8 n^2 bytes


@pytest.mark.parametrize("env_ineq", [None, "1"])
def test_planted_top_above_tolerance_fails_and_optimal_weights_pass(env_ineq, monkeypatch):
    # CRITFORM_TOL_INEQ=1 leaves the verdict to the supersolution proof alone
    if env_ineq:
        monkeypatch.setenv("CRITFORM_TOL_INEQ", env_ineq)
    for form, alpha in ((cf.random_tree_form(300, seed=7), 0.0),
                        (cf.dirichlet_path(80), 0.0),
                        (cf.random_connected_form(60, seed=3, signed_potential=True,
                                                  dirichlet_count=2), 0.0),
                        (cf.random_connected_form(40, seed=5), 0.4)):
        rng = np.random.default_rng(form.n)
        g = np.zeros(form.n)
        g[rng.choice(form.active, size=3, replace=False)] = rng.uniform(0.5, 2.0, 3)
        hw = (cf.hardy_weight(form, g) if alpha == 0
              else cf.perturbed_hardy_bound(form, g, alpha))
        rep = cf.verify_hardy(form, hw.values, alpha=alpha)
        assert rep.passed
        w = hw.values * (1 + 2 * TOL_EIG) / _pencil_top(form, hw.values, alpha)
        assert _pencil_top(form, w, alpha) == pytest.approx(1 + 2 * TOL_EIG, abs=1e-13)
        assert not cf.verify_hardy(form, w, alpha=alpha).passed


def test_pass_fail_agrees_with_the_dense_pencil():
    # signed potentials, Dirichlet vertices, alpha > 0, tops on both sides of 1 + tol
    rng = np.random.default_rng(11)
    passed = []
    for k in range(56):
        form = cf.random_connected_form(int(rng.integers(5, 80)), seed=100 + k,
                                        signed_potential=bool(k // 4 % 2), dirichlet_count=k % 3)
        alpha = (0.0, 0.3)[k // 8 % 2]
        w0 = np.zeros(form.n)
        support = rng.choice(form.active, size=max(1, form.n_active // 3), replace=False)
        w0[support] = rng.uniform(0.1, 1.0, support.size)
        target = (1 - 2 * TOL_EIG, 1 + 2 * TOL_EIG, 0.5, 1.5)[k % 4]
        w = w0 * target / _pencil_top(form, w0, alpha)
        top = _pencil_top(form, w, alpha)
        rep = cf.verify_hardy(form, w, n_samples=50, seed=k, alpha=alpha)
        assert rep.passed == (top <= 1 + TOL_EIG), (k, top)
        # no witness where the shifted potential alone proves the claim
        assert rep.pencil_lambda_max is None or rep.pencil_lambda_max <= top * (1 + 1e-12)
        passed.append(rep.passed)
    assert 20 <= sum(passed) <= 36


def test_nearly_singular_energy_is_not_proved(monkeypatch):
    # Q = Laplacian + c M with c = 1e-12 and W = c (1 + 2 tol) M: the top is
    # 1 + 2 tol at the constants, yet rounding leaves no nonpositive pivot
    # of Q - theta W, so an inertia count at theta alone would accept it
    monkeypatch.setenv("CRITFORM_TOL_INEQ", "1")
    c = 1e-12
    form = cf.random_tree_form(6, seed=2, potential_low=c, potential_high=c)
    w = np.full(form.n, c * (1 + 2 * TOL_EIG))
    ones = np.ones(form.n_active)
    assert form.active_form_matrix @ ones == pytest.approx(c * form.active_measure, rel=1e-3)
    theta = 1 / (1 + TOL_EIG / 2)
    A = form.active_form_matrix - sp.diags(theta * w[form.active] * form.active_measure)
    lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)
    assert not cf.verify_hardy(form, w, n_samples=20).passed


def test_supersolution_bound_covers_the_rounding_of_the_shift():
    # isolated vertices, mu = 1: A = diag(c + alpha - t' w) with t' w within a
    # few ulps of c + alpha, so the rounding of the computed shift alone
    # decides the sign; the exact sign is taken in extended precision
    rng = np.random.default_rng(3)
    c = rng.uniform(1.0, 2.0, 400)
    alpha, claim = 0.25, (1 + 2.0 ** -51) / (1 + TOL_EIG)
    w = (c + alpha) / claim * (1 + 2.0 ** -52 * rng.integers(-8, 9, 400))
    w[:40] *= 1 - 1e-12                              # comfortably inside the claim
    LD = np.longdouble
    exact = c.astype(LD) + LD(alpha) - LD(claim) * w.astype(LD)
    shift = alpha - claim * w
    proved = np.array([
        cf.resolvent._supersolution_proves(sp.csr_matrix([[ck]]), np.array([sk]), np.ones(1),
                                           np.array([alpha + claim * wk]))
        for ck, sk, wk in zip(c, shift, w)])
    assert np.all(exact[proved] > 0)
    assert proved[:40].all()
    # a check in double without the shift's rounding would accept these
    assert np.any((c + shift >= 0) & (exact < 0))


def test_scaled_hardy_weights_of_random_trees_are_never_proved(monkeypatch):
    monkeypatch.setenv("CRITFORM_TOL_INEQ", "1")     # leave the verdict to the proof
    for k in range(30):
        form = cf.random_tree_form(5 + 7 * k, seed=40 + k)
        g = np.zeros(form.n)
        g[form.active[k % form.n_active]] = 1.0
        w = cf.hardy_weight(form, g).values
        assert cf.verify_hardy(form, w, n_samples=0).passed
        assert not cf.verify_hardy(form, w * (1 + 1e-6), n_samples=0).passed


def test_verify_on_a_3d_lattice_needs_no_factorization(monkeypatch):
    # lattice(3, 12): 12,167 free vertices, where an LU-based proof fills in
    form = cf.lattice(3, 12)
    g = np.zeros(form.n)
    g[form.index("0,0,0")] = 1.0
    w = cf.hardy_weight(form, g).values

    def refuse(*args, **kwargs):
        raise AssertionError("sparse factorization")
    monkeypatch.setattr(spla, "splu", refuse)
    tracemalloc.start()
    try:
        rep = cf.verify_hardy(form, w, n_samples=50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.pencil_lambda_max == pytest.approx(1.0, abs=1e-12)
    assert peak < 32 * 2 ** 20


def test_near_critical_point_source_weight_is_proved():
    # path_form(2000): Dirichlet at one end only, lambda_min about 6.2e-7.
    # Q - t' W u then exceeds 0 by about 1e-15 of |Q| u, a few ulps, which
    # the supersolution check resolves in extended precision.
    form = cf.path_form(2000)
    g = np.zeros(form.n)
    g[form.active[666]] = 1.0
    w = cf.hardy_weight(form, g).values
    rep = cf.verify_hardy(form, w, n_samples=50, seed=1)
    assert rep.passed and rep.pencil_lambda_max == pytest.approx(1.0, abs=1e-11)


def test_sample_with_no_energy_but_weight_mass_is_a_violation():
    # one free vertex without potential: every sample has q(f) = 0
    lone = cf.build_form({"vertices": ["o"], "edges": []})
    rep = cf.verify_hardy(lone, [0.5], n_samples=3)
    assert rep.rho_sampled == np.inf and not rep.passed
    assert cf.verify_hardy(lone, [0.0], n_samples=3).rho_sampled == 0.0


def test_perturbed_weight_on_critical_form(two_path):
    hw = cf.perturbed_hardy_bound(two_path, np.ones(2), alpha=1.0)
    assert hw.alpha_used == 1.0
    assert hw.verification.passed
    # G_1 1 = 1 here, so w = 1 and the shifted inequality saturates
    assert np.allclose(hw.values, 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        cf.perturbed_hardy_bound(two_path, np.ones(2), alpha=0.0)


# --- energy identity for positive functions ---------------------------------

def test_gap_closed_form_on_two_path(two_path):
    # q(hf) - q(h f^2, h) = b h(a) h(b) (f(a) - f(b))^2
    h = np.array([2.0, 5.0])
    f = np.array([1.0, -3.0])
    gap = cf.abstract_hardy_gap(two_path, h, f)
    assert gap == pytest.approx(2.0 * 5.0 * 16.0, rel=1e-12)


def test_gap_vanishes_on_ratio_constants(triangle):
    rng = np.random.default_rng(0)
    h = np.abs(rng.uniform(0.5, 2.0, 3))
    gap = cf.abstract_hardy_gap(triangle, h, np.full(3, 3.7))
    assert gap == pytest.approx(0.0, abs=1e-10)


def test_gap_nonnegative_random_sweep():
    rng = np.random.default_rng(42)
    for seed in range(8):
        form = cf.random_connected_form(20, seed=seed, signed_potential=bool(seed % 2))
        h = np.zeros(form.n)
        h[form.active] = rng.uniform(0.1, 3.0, form.n_active)
        for _ in range(25):
            f = rng.standard_normal(form.n)
            assert cf.abstract_hardy_gap(form, h, f) >= -1e-10


def test_gap_rejects_negative_h(two_path):
    with pytest.raises(NonPositiveH):
        cf.abstract_hardy_gap(two_path, np.array([1.0, -2.0]), np.ones(2))


# --- conjugated form ---------------------------------------------------------

def test_transform_energy_identity():
    form = cf.random_connected_form(15, seed=5, dirichlet_count=2)
    rng = np.random.default_rng(5)
    h = np.ones(form.n)
    h[form.active] = rng.uniform(0.5, 2.0, form.n_active)
    h[form.boundary_mask] = 0.0
    gst = cf.ground_state_transform(form, h, alpha=0.3)
    assert gst.validation_max_err <= 1e-12
    new = gst.form
    assert new.vertices == form.vertices and new.dirichlet == form.dirichlet
    f = active_vector(new, rng)
    lhs = cf.evaluate(new, f)
    hf = np.zeros(form.n)
    for idx, v in enumerate(new.vertices):
        hf[form.index(v)] = f[idx] * h[form.index(v)]
    rhs = cf.evaluate(form, hf) + 0.3 * float(np.sum(hf * hf * form.measure))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("base", [cf.path_form, cf.dirichlet_path])
def test_transform_by_a_steep_h_is_certified_nonnegative(base):
    # h = 2^-v spreads the new measure h^2 mu over 4^40; the recovered
    # potential is signed, so the new form needs the nonnegativity certificate
    form = base(40)
    gst = cf.ground_state_transform(form, 2.0 ** -np.arange(form.n))
    assert gst.form.potential.min() < 0
    assert gst.form.measure.max() / gst.form.measure.min() > 1e20


def test_transform_by_excessive_h_makes_one_excessive(pinned_path):
    # h = G g is excessive; the conjugated form must leave 1 excessive
    g = np.array([0.0, 1.0, 0.5, 0.25])
    h = cf.green_apply(pinned_path, g).value
    gst = cf.ground_state_transform(pinned_path, h)
    rep = cf.is_excessive(gst.form, np.where(gst.form.boundary_mask, 0.0, 1.0))
    assert rep.excessive and rep.agree


def test_transform_requires_positive_h(pinned_path):
    h = np.array([0.0, 1.0, 0.0, 1.0])   # vanishes at an interior vertex
    with pytest.raises(NonPositiveH):
        cf.ground_state_transform(pinned_path, h)
