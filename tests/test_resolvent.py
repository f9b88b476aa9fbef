"""Resolvent solves, the heat semigroup, zero-shift limits, excessivity."""
import numpy as np
import pytest
import scipy.linalg

import scipy.sparse as sp
import scipy.sparse.linalg as spla

import critform as cf
from critform import resolvent
from critform.errors import GreenInconclusive, SolverFailure
from critform.resolvent import (
    _rounding_bound, _symmetric_lu, direct_green_solve, solve_spd)

from conftest import active_vector, count_calls, shifted


def dense_resolvent(form, alpha):
    """Oracle: invert (Q + alpha M) on the active block with dense algebra."""
    act = form.active
    Q = form.active_form_matrix.toarray()
    M = np.diag(form.measure[act])
    return np.linalg.inv(Q + alpha * M) @ M


def test_resolvent_matches_dense_inverse(triangle):
    rng = np.random.default_rng(0)
    for alpha in (0.1, 1.0, 7.3):
        R = dense_resolvent(triangle, alpha)
        for _ in range(5):
            f = rng.standard_normal(3)
            u = cf.resolvent_apply(triangle, f, alpha)
            assert np.allclose(u, R @ f, rtol=1e-10, atol=1e-12)


def test_resolvent_requires_positive_shift(triangle):
    with pytest.raises(ValueError):
        cf.resolvent_apply(triangle, np.ones(3), 0.0)


def test_resolvent_positivity_preserving():
    for seed in range(4):
        form = cf.random_connected_form(15, seed=seed, dirichlet_count=2)
        rng = np.random.default_rng(seed)
        g = np.zeros(form.n)
        g[form.active] = rng.uniform(0.0, 1.0, form.n_active)
        u = cf.resolvent_apply(form, g, 0.5)
        assert np.all(u >= -1e-13)


def test_resolvent_identity():
    """G_a - G_b = (b - a) G_a G_b, the defining relation of the family."""
    form = cf.random_connected_form(20, seed=3)
    rng = np.random.default_rng(3)
    f = active_vector(form, rng)
    for a, b in [(0.25, 1.0), (1.0, 4.0), (0.1, 0.3)]:
        lhs = cf.resolvent_apply(form, f, a) - cf.resolvent_apply(form, f, b)
        rhs = (b - a) * cf.resolvent_apply(form, cf.resolvent_apply(form, f, b), a)
        scale = max(float(np.max(np.abs(lhs))), 1e-30)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-9 * scale


def test_semigroup_identity_at_zero_and_composition(triangle):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(3)
    assert np.allclose(cf.semigroup_apply(triangle, f, 0.0), f)
    one_step = cf.semigroup_apply(triangle, f, 0.7)
    two_step = cf.semigroup_apply(triangle, cf.semigroup_apply(triangle, f, 0.3), 0.4)
    assert np.allclose(one_step, two_step, rtol=1e-10, atol=1e-12)


def test_semigroup_conserves_constants_without_potential(two_path):
    # c = 0 and no boundary: T_t 1 = 1 exactly
    out = cf.semigroup_apply(two_path, np.ones(2), 2.5)
    assert np.allclose(out, 1.0, atol=1e-12)


def test_semigroup_matches_dense_expm():
    form = cf.random_connected_form(12, seed=8, dirichlet_count=1)
    act = form.active
    L = np.diag(1.0 / form.measure[act]) @ form.active_form_matrix.toarray()
    rng = np.random.default_rng(8)
    f = active_vector(form, rng)
    expect = scipy.linalg.expm(-1.3 * L) @ f[act]
    got = cf.semigroup_apply(form, f, 1.3)[act]
    assert np.allclose(got, expect, rtol=1e-9, atol=1e-11)


def test_krylov_path_agrees_with_dense():
    form = cf.random_connected_form(30, seed=2)
    rng = np.random.default_rng(2)
    f = active_vector(form, rng)
    dense = cf.semigroup_apply(form, f, 0.9)
    krylov = cf.semigroup_apply(form, f, 0.9, dense_cutoff=1)
    assert np.allclose(dense, krylov, rtol=1e-8, atol=1e-10)


# --- zero-shift limits ------------------------------------------------------

def test_green_on_pinned_path_is_min(pinned_path):
    # Green kernel of the path with an absorbing end is min(n, m)
    for m in (1, 2, 3):
        g = {str(m): 1.0}
        res = cf.green_apply(pinned_path, g)
        assert res.finite
        for n in range(4):
            assert res.value[pinned_path.index(str(n))] == pytest.approx(
                min(n, m), rel=1e-10, abs=1e-12)


def test_green_direct_and_schedule_paths_agree(pinned_path):
    g = {"2": 1.0}
    direct = cf.green_apply(pinned_path, g)
    assert "direct" in direct.detail
    limit = cf.green_apply(pinned_path, g, try_direct=False)
    assert limit.finite
    assert np.allclose(direct.value, limit.value, rtol=1e-7, atol=1e-9)
    # the trace documents a monotone increasing limit as alpha decreases
    sups = [s for _, s in limit.alpha_trace]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(sups, sups[1:]))


def test_green_diverges_without_killing(two_path):
    # no boundary, no potential: G_alpha 1 = 1/alpha blows up
    res = cf.green_apply(two_path, np.ones(2))
    assert res.status == "diverges" and not res.finite
    alphas = [a for a, _ in res.alpha_trace]
    sups = np.array([s for _, s in res.alpha_trace])
    # sup grows like 1/alpha all the way down the schedule
    assert np.all(np.diff(sups) > 0)
    assert sups[-1] > 1e3 * sups[0]
    assert sups[-1] == pytest.approx(1.0 / alphas[-1], rel=1e-6)


def test_green_inconclusive_on_truncated_schedule(pinned_path):
    # two shifts are not enough evidence either way
    with pytest.raises(GreenInconclusive):
        cf.green_apply(pinned_path, {"2": 1.0}, alpha_schedule=[1.0, 0.9],
                       try_direct=False)


def test_direct_green_solve_rejects_singular(two_path):
    assert direct_green_solve(two_path, np.ones(2)) is None


# --- excessive functions ----------------------------------------------------

def laplacian(form):
    """Q without potential or Dirichlet rows: singular, kernel = constants."""
    i, j = form.edge_index[:, 0], form.edge_index[:, 1]
    A = sp.csr_matrix((-form.weights, (i, j)), shape=(form.n, form.n))
    A = A + A.T
    return (A - sp.diags(np.asarray(A.sum(axis=1)).ravel())).tocsr()


@pytest.fixture
def backends(monkeypatch):
    """Record which backend each solve_spd call picks."""
    calls = []
    for name in ("splu", "cg"):
        real = getattr(spla, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(spla, name, spy)
    return calls


@pytest.mark.parametrize("make,backend", [
    (lambda: cf.path_form(10_000), "splu"),           # 10^4 unknowns, 3 nonzeros per row
    (lambda: cf.random_tree_form(3000, seed=4), "splu"),
    (lambda: cf.lattice(3, 8), "cg"),                 # 3375 unknowns, 7 nonzeros per row
], ids=["path", "tree", "lattice3d"])
def test_solve_spd_backend_rule(make, backend, backends):
    form = make()
    A = form.active_form_matrix + sp.identity(form.n_active)
    b = np.random.default_rng(0).standard_normal(form.n_active)
    u = solve_spd(A)(b)
    assert backends == [backend]
    assert np.linalg.norm(A @ u - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("R", [1, 6])                 # 27 unknowns (LU), 2197 (CG)
def test_solve_spd_rejects_inconsistent_singular_system(R):
    A = laplacian(cf.lattice(3, R))
    b = np.zeros(A.shape[0])
    b[0] = 1.0                                        # not orthogonal to the constants
    with pytest.raises(SolverFailure):
        solve_spd(A)(b)


@pytest.mark.parametrize("alpha", [1.0, 1e-8])
def test_shifted_cg_solve_matches_lu(alpha, backends):
    form = cf.lattice(3, 8)                           # 3375 unknowns: CG
    act = form.active
    f = np.zeros(form.n)
    f[form.index("0,0,0")] = 1.0
    u = cf.resolvent_apply(form, f, alpha)
    assert backends == ["cg"]
    A = sp.csc_matrix(form.active_form_matrix + alpha * sp.diags(form.active_measure))
    ref = spla.splu(A).solve(form.measure[act] * f[act])
    assert np.max(np.abs(u[act] - ref)) <= 1e-10 * np.max(np.abs(ref))
    # a CG solver is rebuilt per call, not cached on the form
    assert not any(isinstance(key, tuple) for key in form._cache)


def free_floating_box(R):
    """The lattice box of radius R without its Dirichlet shell: Q is the
    graph Laplacian, singular with the constants as kernel."""
    box = cf.lattice(3, R)
    return cf.GraphForm.from_arrays(box.vertices, box.edge_index, box.weights)


def test_direct_green_solve_skips_floating_component(backends):
    form = free_floating_box(6)                       # 2197 unknowns, CG-sized
    assert direct_green_solve(form, {"0,0,0": 1.0}) is None
    assert backends == []                             # no solve was attempted
    res = cf.green_apply(form, {"0,0,0": 1.0})
    assert res.status == "diverges"
    assert backends and set(backends) == {"cg"}


def test_direct_green_solve_runs_when_every_component_is_anchored(backends):
    box = free_floating_box(6)
    potential = np.zeros(box.n)
    potential[box.index("6,6,6")] = 1.0               # one killed corner anchors the box
    form = cf.GraphForm.from_arrays(box.vertices, box.edge_index, box.weights,
                                    potential=potential)
    u = direct_green_solve(form, {"0,0,0": 1.0})
    assert u is not None and np.all(u > 0)
    assert backends == ["cg"]


# --- symmetric factorization and inertia ------------------------------------

def test_pivot_count_matches_dense_eigenvalues():
    # Sylvester: Q + s M has as many nonpositive pivots as the pencil (Q, M)
    # has eigenvalues <= -s
    rng = np.random.default_rng(5)
    negative = 0
    for k in range(102):
        n = int(rng.integers(5, 301))
        form = cf.random_connected_form(n, seed=k, dirichlet_count=k % 3)
        mu = form.active_measure
        Q = (form.active_form_matrix
             + sp.diags(rng.uniform(-3.0, 1.0, form.n_active) * mu)).tocsr()
        dense = Q.toarray()
        lam = scipy.linalg.eigvalsh(dense, np.diag(mu))
        tol = 1e-10 * max(float(np.max(np.abs(dense).sum(axis=1) / mu)), 1.0)
        for s in (-tol, 0.0, tol):
            U = _symmetric_lu(Q, s * mu).U
            assert np.count_nonzero(U.diagonal() <= 0) == np.count_nonzero(lam <= -s)
        negative += np.count_nonzero(lam < 0)
    assert negative > 1000


@pytest.mark.parametrize("make", [
    lambda: cf.random_connected_form(200, seed=8, dirichlet_count=3),
    lambda: cf.lattice(2, 8),
    lambda: cf.random_tree_form(150, seed=9),
], ids=["graph", "lattice2d", "tree"])
def test_rounding_bound_covers_the_factorization_error(make):
    # E = L D L^T - P (Q + s M) P^T in extended precision against the bound
    form = make()
    Q, mu = form.active_form_matrix, form.active_measure
    shift = 1e-3 * mu
    lu = _symmetric_lu(Q, shift)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    back = np.argsort(lu.perm_c)
    A = (Q.toarray().astype(np.longdouble) + np.diag(shift.astype(np.longdouble)))[back][:, back]
    L = lu.L.toarray().astype(np.longdouble)
    E = (L * lu.U.diagonal().astype(np.longdouble)) @ L.T - A
    assert np.max(np.abs(E)) > 0
    assert np.linalg.norm(E.astype(float), 2) <= _rounding_bound(lu.L, lu.U)


def reference_rounding_bound(L, U):
    """||(gamma_{k+1} |L| |U| + |L| |U - D L^T|) 1||_inf with sparse products."""
    k = max(np.diff(L.indptr).max(), np.diff(L.tocsr().indptr).max())
    g = (k + 1) * 2.0 ** -53
    one = np.ones(L.shape[0])
    dev = abs(U - sp.diags(U.diagonal()) @ L.T) @ one
    return float((abs(L) @ (g / (1 - g) * (abs(U) @ one) + dev)).max())


@pytest.mark.parametrize("make", [
    lambda: cf.dirichlet_path(60_000),                # keys i n + j pass 2^31
    lambda: cf.lattice(2, 20),
    lambda: cf.random_connected_form(300, seed=1),
], ids=["long-path", "lattice2d", "graph"])
def test_rounding_bound_matches_sparse_reference(make):
    form = make()
    lu = _symmetric_lu(form.active_form_matrix, 1e-3 * form.active_measure)
    reference = reference_rounding_bound(lu.L, lu.U)
    assert _rounding_bound(lu.L, lu.U) == pytest.approx(reference, rel=1e-12, abs=0)


@pytest.mark.parametrize("make", [lambda: cf.lattice(2, 8), lambda: cf.lattice(2, 50)],
                         ids=["superlu", "cg"])
def test_solver_reads_tol_solve_once_when_built(make, monkeypatch):
    Q = make().active_form_matrix
    b = np.ones(Q.shape[0])
    calls = count_calls(monkeypatch, resolvent, "tolerances")
    solve = solve_spd(Q)
    monkeypatch.setenv("CRITFORM_TOL_SOLVE", "1e-30")    # no residual meets this
    for _ in range(5):
        solve(b)
    assert len(calls) == 1
    with pytest.raises(SolverFailure):
        solve_spd(Q)(b)


def test_pivot_off_the_diagonal_is_not_an_inertia():
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SolverFailure):
        _symmetric_lu(swap)


@pytest.mark.parametrize("make, alpha", [
    (lambda: cf.random_tree_form(1500, seed=3), 0.0),
    (lambda: cf.lattice(2, 22), 0.0),                 # 1849 unknowns
    (lambda: cf.lattice(2, 12), 1e-3),
    (lambda: cf.random_connected_form(800, seed=6, extra_edge_prob=0.5), 0.7),
    (lambda: cf.random_connected_form(300, seed=7, dirichlet_count=4), 1e-8),
], ids=["tree", "lattice2d", "lattice2d-shifted", "graph-shifted", "graph-dirichlet"])
def test_symmetric_mode_solves_match_default_superlu(make, alpha):
    form = make()
    Q = form.active_form_matrix
    shift = alpha * form.active_measure if alpha else None
    b = np.random.default_rng(1).standard_normal(form.n_active)
    u = solve_spd(Q, shift)(b)
    ref = spla.splu(sp.csc_matrix(Q + sp.diags(alpha * form.active_measure))).solve(b)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_constant_is_excessive_without_potential(two_path):
    rep = cf.is_excessive(two_path, np.ones(2))
    assert rep.excessive and rep.grid_excessive and rep.agree
    assert rep.algebraic_min == pytest.approx(0.0, abs=1e-12)


def test_resolvent_of_nonnegative_is_excessive_for_shifted_form():
    form = cf.random_connected_form(18, seed=4)
    rng = np.random.default_rng(4)
    g = np.zeros(form.n)
    g[form.active] = rng.uniform(0.5, 2.0, form.n_active)
    alpha = 0.8
    h = cf.resolvent_apply(form, g, alpha)
    rep = cf.is_excessive(shifted(form, alpha), h)
    assert rep.excessive and rep.agree
    # the generator residual of the shifted form on h is exactly g
    assert rep.algebraic_min >= 0.4


def test_strict_interior_minimum_is_not_excessive(pinned_path):
    # dip at an interior vertex with zero potential: L h < 0 there
    h = np.array([0.0, 1.0, 0.2, 1.0])
    rep = cf.is_excessive(pinned_path, h)
    assert not rep.excessive and not rep.grid_excessive and rep.agree


def test_is_excessive_solves_its_nine_shift_grid(monkeypatch):
    form = cf.random_connected_form(18, seed=4)
    solves = count_calls(monkeypatch, resolvent, "_shifted_solve")
    rep = cf.is_excessive(form, np.ones(form.n))
    assert rep.agree
    assert len(solves) == 9


def test_excessive_rejects_negative_h(two_path):
    with pytest.raises(ValueError):
        cf.is_excessive(two_path, np.array([1.0, -1.0]))


# --- contraction bounds -----------------------------------------------------

def test_contraction_single_vertex_exact(single_vertex):
    # L = 1: alpha G_alpha f = alpha/(1+alpha) f, both bounds reduce to scalars
    f = np.array([2.0])
    rep = cf.check_resolvent_contraction(single_vertex, f, 1.0)
    assert rep.q_input == pytest.approx(4.0)
    assert rep.q_smoothed == pytest.approx(1.0, rel=1e-12)   # (1/2 * 2)^2
    assert rep.defect_energy == pytest.approx(1.0, rel=1e-12)
    assert rep.energy_ok and rep.defect_ok


def test_contraction_bounds_random_sweep():
    rng = np.random.default_rng(9)
    for seed in range(5):
        form = cf.random_connected_form(25, seed=seed, signed_potential=True)
        for alpha in (0.2, 1.0, 3.0):
            f = active_vector(form, rng)
            rep = cf.check_resolvent_contraction(form, f, alpha)
            assert rep.energy_ok, (rep.q_smoothed, rep.q_input)
            assert rep.defect_ok, (rep.defect_energy, rep.q_input)
