"""Weight generation, the two-sided verification gates, the positive-function
energy identity, and the conjugated form."""
import numpy as np
import pytest
import scipy.linalg

import critform as cf
from critform.errors import GreenDiverges, NonPositiveH, NonPositiveInput

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
    with pytest.raises(GreenDiverges):
        cf.hardy_weight(two_path, np.ones(2), seed=0)


def test_weight_shift_fallback_on_critical_form(two_path):
    hw = cf.hardy_weight(two_path, np.ones(2), allow_shift_fallback=True, seed=0)
    assert hw.alpha_used > 0
    assert hw.verification.passed
    assert hw.verification.alpha == hw.alpha_used


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
    hw = cf.hardy_weight(pinned_path, {"2": 1.0}, verify=False)
    too_big = 1.5 * hw.values
    rep = cf.verify_hardy(pinned_path, too_big, seed=0)
    assert not rep.passed
    assert rep.pencil_lambda_max > 1 + 1e-8


def test_verify_pencil_and_sampling_agree(pinned_path):
    hw = cf.hardy_weight(pinned_path, {"2": 1.0}, verify=False)
    rep = cf.verify_hardy(pinned_path, hw.values, n_samples=2000, seed=3)
    # adversarial eigenvector samples make the sampled ratio sharp
    assert rep.rho_sampled == pytest.approx(rep.pencil_lambda_max, abs=1e-6)


def _rho_reference(form, w, n_samples, seed, alpha):
    """Per-sample Rayleigh-quotient loop over the random draws and the top
    pencil directions (exact eigh on the levels used here)."""
    act, mu = form.active, form.active_measure
    W = w[act] * mu
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(act.size) for _ in range(n_samples)]
    B = form.active_form_matrix.toarray() + alpha * np.diag(mu)
    vecs = scipy.linalg.eigh(np.diag(W), B)[1]
    samples.extend(vecs[:, -min(5, act.size):].T)
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
        hw = cf.hardy_weight(form, g, verify=False)
        for seed, alpha, scale in ((0, 0.0, 1.0), (3, 0.0, 1.3), (5, 0.5, 1.0)):
            w = scale * hw.values
            rep = cf.verify_hardy(form, w, n_samples=60, seed=seed, alpha=alpha)
            rho, count = _rho_reference(form, w, 60, seed, alpha)
            assert rep.rho_sampled == pytest.approx(rho, rel=1e-12)
            assert rep.n_samples == count
            assert rep.passed == (scale == 1.0)


def test_verify_without_samples(pinned_path, all_dirichlet):
    w = cf.hardy_weight(pinned_path, {"2": 1.0}, verify=False).values
    rep = cf.verify_hardy(pinned_path, w, n_samples=0)
    assert rep.n_samples == 3 and rep.rho_sampled == pytest.approx(rep.pencil_lambda_max)
    rep = cf.verify_hardy(all_dirichlet, np.zeros(2), n_samples=7)
    assert (rep.rho_sampled, rep.n_samples, rep.pencil_lambda_max) == (0.0, 7, None)
    assert cf.ground_state_transform(all_dirichlet, np.ones(2)).validation_max_err == 0.0
    gst = cf.ground_state_transform(pinned_path, [0.0, 1.0, 2.0, 3.0], n_validation=0)
    assert gst.validation_max_err == 0.0


def test_verify_notes_tell_empty_from_too_large(all_dirichlet, monkeypatch):
    empty = cf.verify_hardy(all_dirichlet, np.zeros(2), n_samples=3).note
    monkeypatch.setattr(cf.hardy, "PENCIL_CUTOFF", 2)
    large = cf.verify_hardy(cf.path_form(3), np.zeros(4), n_samples=3).note
    assert "no non-Dirichlet vertex" in empty
    assert "too large" in large and "too large" not in empty


def test_perturbed_weight_on_critical_form(two_path):
    hw = cf.perturbed_hardy_bound(two_path, np.ones(2), alpha=1.0, seed=0)
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
