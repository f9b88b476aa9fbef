"""Resolvent solves, the heat semigroup, zero-shift limits, excessivity."""
import dataclasses
import struct

import numpy as np
import pytest
import scipy.linalg

import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import critform as cf
from critform import resolvent
from critform.errors import GreenInconclusive, SolverFailure
from critform.resolvent import (
    _solve, _supersolution_proves, direct_green_solve, solve_spd)

from conftest import CACHED, active_vector, backends_per_call, count_calls, shifted


def assert_no_factorization_kept(form):
    """A form holds its fields and its class's cached values, none a factorization."""
    assert set(vars(form)) <= {f.name for f in dataclasses.fields(form)} | CACHED
    assert not any(isinstance(value, (spla.SuperLU, spla.LinearOperator))
                   for value in vars(form).values())


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


def test_krylov_path_agrees_with_dense(monkeypatch):
    form = cf.random_connected_form(30, seed=2)
    rng = np.random.default_rng(2)
    f = active_vector(form, rng)
    dense = cf.semigroup_apply(form, f, 0.9)
    monkeypatch.setattr(resolvent, "DENSE_SEMIGROUP_CUTOFF", 1)
    krylov = cf.semigroup_apply(form, f, 0.9)
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


def test_green_direct_and_schedule_paths_agree(pinned_path, monkeypatch):
    g = {"2": 1.0}
    direct = cf.green_apply(pinned_path, g)
    assert "direct" in direct.detail
    monkeypatch.setattr(resolvent, "direct_green_solve", lambda form, f: None)
    limit = cf.green_apply(pinned_path, g)
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


def test_green_diverges_on_a_sup_norm_blowup(two_path):
    # G_alpha delta_a(a) = 1/(2 alpha) + 1/(2 (2 + alpha)) passes 1e12 = 1e12 sup|f|
    # at alpha = 2^-41, before the schedule ends at 1e-14
    res = cf.green_apply(two_path, [1.0, 0.0], cf.default_alpha_schedule(1, 1e-14, 0.5))
    assert res.status == "diverges" and res.value is None
    assert res.detail == "sup norm 1.100e+12 crossed blowup threshold"
    assert res.alpha_trace[-1][0] == 2.0 ** -41


def test_green_inconclusive_on_truncated_schedule(pinned_path, monkeypatch):
    # two shifts are not enough evidence either way
    monkeypatch.setattr(resolvent, "direct_green_solve", lambda form, f: None)
    with pytest.raises(GreenInconclusive):
        cf.green_apply(pinned_path, {"2": 1.0}, alpha_schedule=[1.0, 0.9])


def test_direct_green_solve_rejects_singular(two_path):
    assert direct_green_solve(two_path, np.ones(2)) is None


# --- excessive functions ----------------------------------------------------

def laplacian(form):
    """Q without potential or Dirichlet rows: singular, kernel = constants."""
    i, j = form.edge_index[:, 0], form.edge_index[:, 1]
    A = sp.csr_matrix((-form.weights, (i, j)), shape=(form.n, form.n))
    A = A + A.T
    return (A - sp.diags(np.asarray(A.sum(axis=1)).ravel())).tocsr()


@pytest.mark.parametrize("make,backend", [
    (lambda: cf.random_connected_form(60, seed=3), "dgetrf"),   # <= 100 unknowns: dense LU
    (lambda: cf.lattice(2, 12), "splu"),              # 529 unknowns, 5 nonzeros per row
    (lambda: cf.path_form(10_000), "splu"),           # 10^4 unknowns, 3 nonzeros per row
    (lambda: cf.random_tree_form(3000, seed=4), "splu"),
    (lambda: cf.lattice(3, 8), "cg"),                 # 3375 unknowns, 7 nonzeros per row
], ids=["dense", "lattice2d", "path", "tree", "lattice3d"])
def test_solve_spd_backend_rule(make, backend, backends):
    form = make()
    A = form.active_form_matrix + sp.identity(form.n_active)
    b = np.random.default_rng(0).standard_normal(form.n_active)
    u = solve_spd(A, b)
    assert backends == [backend]
    assert np.linalg.norm(A @ u - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("R, backend", [(1, "dgetrf"), (2, "splu"), (6, "cg")],
                         ids=["1", "2", "6"])             # 27 (dense LU), 125 (SuperLU), 2197 (CG) unknowns
def test_solve_spd_rejects_inconsistent_singular_system(R, backend, backends):
    A = laplacian(cf.lattice(3, R))
    b = np.zeros(A.shape[0])
    b[0] = 1.0                                        # not orthogonal to the constants
    with pytest.raises(SolverFailure):
        solve_spd(A, b)
    assert backends == [backend]


def test_dense_factorization_with_a_zero_pivot_fails():
    # the Laplacian of a 40-vertex path in its own order: elimination without
    # row swaps leaves the last pivot exactly 0
    A = sp.diags([-np.ones(39), np.r_[1.0, 2.0 * np.ones(38), 1.0], -np.ones(39)],
                 [-1, 0, 1], format="csr")
    assert lapack.dgetrf(A.toarray())[2] == 40
    with pytest.raises(SolverFailure, match="getrf"):
        solve_spd(A, np.ones(40))


@pytest.mark.parametrize("make,backend", [
    (lambda: cf.random_connected_form(60, seed=3), "dgetrf"),
    (lambda: cf.lattice(2, 12), "splu"),              # 529 unknowns
    (lambda: cf.lattice(3, 8), "cg"),                 # 3375 unknowns
], ids=["dense", "superlu", "cg"])
def test_stacked_solve_equals_single_shift_solves(make, backend, backends):
    form = make()
    A = form.active_form_matrix
    b = np.random.default_rng(1).standard_normal(form.n_active)
    shifts = np.multiply.outer([4.0, 0.3, 1e-3], form.active_measure)
    U = solve_spd(A, b, shifts)
    assert backends == [backend] * 3
    assert U.shape == (form.n_active, 3)
    for j, shift in enumerate(shifts):
        assert U[:, j].tobytes() == solve_spd(A, b, shift).tobytes()


@pytest.mark.parametrize("make,backend", [
    (lambda: cf.random_connected_form(60, seed=3), "dgetrf"),
    (lambda: cf.lattice(2, 12), "splu"),              # 529 unknowns
    (lambda: cf.lattice(3, 8), "cg"),                 # 3375 unknowns
], ids=["dense", "superlu", "cg"])
def test_resolvent_routes_make_the_plain_solve_spd_calls(make, backend, backends, monkeypatch):
    form = make()
    act, mu = form.active, form.active_measure
    f = active_vector(form, np.random.default_rng(2))
    A, b = form.active_form_matrix, form.measure[act] * f[act]
    alphas = np.array([4.0, 1e-3])
    expected = [solve_spd(A, b, a * mu) for a in alphas] + [solve_spd(A, b)]
    shifts = []
    real = resolvent.solve_spd

    def spy(A, b, shift=None):
        shifts.append(shift)
        return real(A, b, shift)
    monkeypatch.setattr(resolvent, "solve_spd", spy)
    del backends[:]
    got = [cf.resolvent_apply(form, f, a)[act] for a in alphas]
    got.append(resolvent.direct_green_solve(form, f)[act])
    grid = resolvent._resolvent_grid(form, f, alphas)
    assert backends == [backend] * 5
    assert shifts[2] is None                          # a zero shift adds no diagonal
    assert [u.tobytes() for u in got] == [u.tobytes() for u in expected]
    assert [u.tobytes() for u in grid.T] == [u.tobytes() for u in expected[:2]]


def test_stacked_solve_fails_on_a_zero_pivot_column():
    # the 40-vertex path Laplacian of test_dense_factorization_with_a_zero_pivot_fails:
    # a zero shift leaves its zero pivot, a unit shift factors
    A = sp.diags([-np.ones(39), np.r_[1.0, 2.0 * np.ones(38), 1.0], -np.ones(39)],
                 [-1, 0, 1], format="csr")
    solve_spd(A, np.ones(40), np.ones((2, 40)))
    with pytest.raises(SolverFailure, match="getrf info 40"):
        solve_spd(A, np.ones(40), np.array([np.ones(40), np.zeros(40)]))


def test_stacked_solve_certifies_every_column(monkeypatch):
    form = cf.random_connected_form(30, seed=2)
    A, b = form.active_form_matrix, np.ones(form.n_active)
    shifts = np.multiply.outer([1.0, 0.5, 0.25], form.active_measure)
    solve_spd(A, b, shifts)
    real, calls = lapack.dgetrs, []

    def spoil_second(*args, **kwargs):                # the second shift's solve is off by 1e-3
        u, info = real(*args, **kwargs)
        calls.append(len(calls))
        return u + 1e-3 * (len(calls) == 2), info
    monkeypatch.setattr(lapack, "dgetrs", spoil_second)
    with pytest.raises(SolverFailure, match="residual"):
        solve_spd(A, b, shifts)
    assert len(calls) == 3


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


@pytest.mark.parametrize("make,backend", [
    (lambda: cf.random_connected_form(60, seed=3, dirichlet_count=2), "dgetrf"),
    (lambda: cf.lattice(2, 12), "splu"),              # 529 unknowns
    (lambda: cf.lattice(3, 8), "cg"),                 # 3375 unknowns
], ids=["dense", "superlu", "cg"])
def test_no_factorization_outlives_its_solve(make, backend, backends, monkeypatch):
    form = make()
    solves = backends_per_call(monkeypatch, resolvent, "solve_spd", backends)
    f = np.zeros(form.n)
    f[form.active[0]] = 1.0
    first = cf.resolvent_apply(form, f, 0.5)
    assert np.array_equal(cf.resolvent_apply(form, f, 0.5), first)
    res = cf.green_apply(form, f)
    assert res.finite
    assert cf.is_excessive(form, res.value).excessive
    # 2 shifted, 1 direct, then the 9-shift grid in one call: each shift factored afresh
    assert [made for _, made in solves] == [[backend]] * 3 + [[backend] * 9]
    assert backends == [backend] * 12                 # none outside a solve_spd call
    assert_no_factorization_kept(form)


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


def test_floating_check_labels_components_only_when_some_vertex_is_unanchored(monkeypatch):
    box = free_floating_box(3)
    potential = np.zeros(box.n)
    potential[box.index("3,3,3")] = 1.0
    corner = cf.GraphForm.from_arrays(box.vertices, box.edge_index, box.weights,
                                      potential=potential)
    calls = count_calls(monkeypatch, cf.forms.csgraph, "connected_components")
    for form, floats, labelled in [
        (box, True, 1),                                  # no anchor at all
        (corner, False, 1),                              # one anchored corner
        (cf.lattice(2, 3), False, 1),                    # the origin has no boundary edge
        (cf.dirichlet_path(2), False, 0),                # anchored by its boundary edges
        (cf.random_tree_form(100, seed=1), False, 0),    # potential >= 0.1 everywhere
    ]:
        del calls[:]
        assert form._has_floating_component is floats
        assert len(calls) == labelled


# --- nonnegativity verdicts -------------------------------------------------

def planted(form, shift):
    """``form`` with the potential c + shift (a scalar or one value per vertex);
    Q gains diag(shift * mu), so a scalar shift moves every eigenvalue of the
    pencil (Q, M) by shift.  Returns the form or the ``FormNotNonnegative`` it
    raised."""
    try:
        return cf.GraphForm.from_arrays(form.vertices, form.edge_index, form.weights,
                                        form.measure, form.potential + shift,
                                        form.dirichlet)
    except cf.FormNotNonnegative as exc:
        return exc


def psd_tol(Q, mu):
    """tol_psd times the top row sum of |M^-1/2 Q M^-1/2|, as the form computes it."""
    d = 1.0 / np.sqrt(mu)
    return 1e-10 * max(float(np.max(d * (abs(Q) @ d))), 1.0)


def assert_verdict(out, lam, tol):
    """Rejected exactly when the pencil minimum lam lies below -tol/2, by a
    witness whose Rayleigh quotient lies in [lam, -tol/2)."""
    if lam < -tol / 2:
        assert isinstance(out, cf.FormNotNonnegative), (lam, tol)
        assert out.tol == pytest.approx(tol, rel=1e-12)
        assert lam - 1e-12 * max(abs(lam), 1.0) <= out.rayleigh < -tol / 2
    else:
        assert isinstance(out, cf.GraphForm), (lam, tol, out)


PLANTED_GAPS = [(1e-3, 0), (1e-6, 0), (0, 4.0), (0, 0.75), (0, 0.25)]   # absolute + units of tol


@pytest.mark.parametrize("gap, in_tol", PLANTED_GAPS,
                         ids=["1e-3", "1e-6", "4tol", "0.75tol", "0.25tol"])
def test_nonnegativity_verdicts_match_dense_eigenvalues(gap, in_tol, backends):
    # lambda_min planted at +-(gap + in_tol * tol) on random forms solved by
    # dense LU and SuperLU, plus a negative diagonal entry that rejects before
    # any solve
    rng = np.random.default_rng(5)
    rejected = 0
    for k in range(60):
        n = int(rng.integers(5, 400))
        form = cf.random_connected_form(n, seed=k, signed_potential=bool(k % 2),
                                        dirichlet_count=k % 3)
        Q, mu = form.active_form_matrix, form.active_measure
        lam = scipy.linalg.eigvalsh(Q.toarray(), np.diag(mu))[0]
        for sign in (1, -1):
            target = sign * (gap + in_tol * psd_tol(Q - lam * sp.diags(mu), mu))
            shift = target - lam
            moved = Q + shift * sp.diags(mu)
            out = planted(form, shift)
            assert_verdict(out, target, psd_tol(moved, mu))
            rejected += isinstance(out, cf.FormNotNonnegative)
        if k % 10 == 0:                               # one vertex far below the rest
            dip = np.zeros(form.n)
            dip[form.active[0]] = -(Q.diagonal()[0] / mu[0] + 1.0)
            moved = Q + sp.diags(dip[form.active] * mu)
            lam_dip = scipy.linalg.eigvalsh(moved.toarray(), np.diag(mu))[0]
            del backends[:]
            out = planted(form, dip)
            assert_verdict(out, lam_dip, psd_tol(moved, mu))
            assert out.rayleigh == pytest.approx(-1.0) and backends == []
    assert rejected == (0 if in_tol == 0.25 else 60)    # -0.25 tol is within the slack
    assert {"dgetrf", "splu"} <= set(backends)


def test_nonnegativity_verdicts_on_the_cg_backend(backends):
    # lattice(3, 7): 13^3 = 2197 free vertices, mu = 1, lambda_1 = 12 sin^2(pi / 28)
    box = cf.lattice(3, 7)
    lam1 = 12 * np.sin(np.pi / 28) ** 2
    for gap, in_tol in PLANTED_GAPS:
        for sign in (1, -1):
            target = sign * (gap + in_tol * 12e-10)   # tol = tol_psd (|6 + c| + 6), about 1.2e-9
            c = np.full(box.n, target - lam1)
            tol = psd_tol(box.active_form_matrix + sp.diags(c[box.active]), box.active_measure)
            assert_verdict(planted(box, c), target, tol)
    assert set(backends) == {"cg"}
    del backends[:]
    dip = np.zeros(box.n)
    dip[box.index("0,0,0")] = -10.0                   # Q_oo = 6 - 10: no solve, no CG refusal
    out = planted(box, dip)
    assert isinstance(out, cf.FormNotNonnegative) and out.rayleigh == -4.0
    assert backends == []


@pytest.mark.parametrize("make", [lambda: cf.lattice(2, 4), lambda: cf.lattice(2, 8),
                                  lambda: cf.lattice(2, 50)],
                         ids=["dense", "superlu", "cg"])
def test_each_solve_reads_tol_solve_once(make, monkeypatch):
    Q = make().active_form_matrix
    b = np.ones(Q.shape[0])
    calls = count_calls(monkeypatch, resolvent, "tolerance")
    for k in range(1, 4):
        solve_spd(Q, b)
        assert calls == [("tol_solve",)] * k
    monkeypatch.setenv("CRITFORM_TOL_SOLVE", "1e-30")    # no residual meets this
    with pytest.raises(SolverFailure):
        solve_spd(Q, b)
    assert len(calls) == 4


def test_supersolution_proof_agrees_with_dense_eigenvalues():
    # u solving (Q + s M) u = mu proves Q + s M >= 0 whenever lambda_min
    # clears 0 by a margin, and never when it lies below 0
    rng = np.random.default_rng(6)
    proved = refused = 0
    for k in range(60):
        n = int(rng.integers(5, 200))
        form = cf.random_connected_form(n, seed=k, signed_potential=bool(k % 2),
                                        dirichlet_count=k % 3)
        Q, mu = form.active_form_matrix, form.active_measure
        lam = scipy.linalg.eigvalsh(Q.toarray(), np.diag(mu))[0]
        for gap in (-1e-3, -1e-8, 1e-8, 1e-3):
            ok = _supersolution_proves(Q, (gap - lam) * mu, _solve(Q, mu, (gap - lam) * mu))
            assert ok == (gap > 0), (k, gap)
            proved, refused = proved + ok, refused + (not ok)
    assert proved == refused == 120


def test_supersolution_needs_a_positive_finite_u():
    Q = cf.dirichlet_path(5).active_form_matrix
    s = np.zeros(Q.shape[0])
    assert not _supersolution_proves(Q, s, np.ones(Q.shape[0]))   # Q 1 = 0 inside: no margin
    u = _solve(Q, np.ones(Q.shape[0]))
    assert _supersolution_proves(Q, s, u)
    for bad in (0.0, -1.0, np.inf, np.nan):
        v = u.copy()
        v[2] = bad
        assert not _supersolution_proves(Q, s, v)


@pytest.mark.parametrize("make", [lambda: cf.lattice(2, 4), lambda: cf.lattice(2, 8),
                                  lambda: cf.lattice(2, 50)],
                         ids=["dense", "superlu", "cg"])
def test_block_solve_serves_every_column_with_one_factorization(make, backends):
    Q = make().active_form_matrix
    B = np.random.default_rng(2).standard_normal((Q.shape[0], 3))
    shift = np.full(Q.shape[0], 0.1)
    U = _solve(Q, B, shift)
    assert len(backends) == (3 if backends[0] == "cg" else 1)
    for col in range(3):
        assert U[:, col] == pytest.approx(solve_spd(Q, B[:, col], shift), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("make, alpha", [
    (lambda: cf.random_tree_form(1500, seed=3), 0.0),
    (lambda: cf.lattice(2, 22), 0.0),                 # 1849 unknowns
    (lambda: cf.lattice(2, 12), 1e-3),
    (lambda: cf.random_connected_form(800, seed=6, extra_edge_prob=0.5), 0.7),
    (lambda: cf.random_connected_form(300, seed=7, dirichlet_count=4), 1e-8),
    (lambda: cf.random_connected_form(80, seed=2, dirichlet_count=3), 1e-3),   # dense LU
], ids=["tree", "lattice2d", "lattice2d-shifted", "graph-shifted", "graph-dirichlet",
        "dense-shifted"])
def test_symmetric_mode_solves_match_default_superlu(make, alpha):
    form = make()
    Q = form.active_form_matrix
    shift = alpha * form.active_measure if alpha else None
    b = np.random.default_rng(1).standard_normal(form.n_active)
    u = solve_spd(Q, b, shift)
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


def test_is_excessive_solves_its_nine_shift_grid(backends, monkeypatch):
    form = cf.random_connected_form(18, seed=4)
    solves = backends_per_call(monkeypatch, resolvent, "solve_spd", backends)
    rep = cf.is_excessive(form, np.ones(form.n))
    assert rep.agree
    [(args, made)] = solves                           # one call for the whole grid
    alphas = max(form.operator_norm_bound, 1.0) * np.logspace(-2, 2, 9)
    assert np.array_equal(args[2], np.multiply.outer(alphas, form.active_measure))
    assert made == backends == ["dgetrf"] * 9         # one factorization per shift
    assert_no_factorization_kept(form)


def reference_grid_max_violation(form, h):
    """The grid violation of ``is_excessive``, one ``resolvent_apply`` per shift."""
    hv = np.maximum(np.asarray(h, dtype=float), 0.0)
    worst = -np.inf
    for alpha in max(form.operator_norm_bound, 1.0) * np.logspace(-2, 2, 9):
        u = cf.resolvent_apply(form, hv, alpha)
        worst = max(worst, float(np.max(alpha * u - hv)))
    return worst


def test_is_excessive_grid_matches_the_per_shift_loop():
    rng = np.random.default_rng(19)
    sizes = set()
    for seed in range(50):
        n = int(rng.integers(2, 140))
        form = cf.random_connected_form(n, seed=seed, signed_potential=seed % 2 == 1,
                                        dirichlet_count=min(seed % 3, n - 2))
        h = np.zeros(form.n)
        h[form.active] = rng.uniform(0.1, 2.0, form.n_active)
        h[form.active[rng.integers(form.n_active)]] = 0.0
        rep = cf.is_excessive(form, h)
        ref = reference_grid_max_violation(form, h)
        assert struct.pack("<d", rep.grid_max_violation) == struct.pack("<d", ref)
        sizes.add((form.n_active > resolvent.DENSE_MAX_UNKNOWNS, bool(form.dirichlet)))
    assert sizes == {(False, False), (False, True), (True, False), (True, True)}


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


def test_contraction_verdict_is_fixed_when_judged(single_vertex):
    # judged inside the job, where a slack of -10 fails both bounds, and read after it
    with cf.job_tolerances({"tol_ineq": -10.0}):
        rep = cf.check_resolvent_contraction(single_vertex, np.array([2.0]), 1.0)
    assert not rep.energy_ok and not rep.defect_ok


def test_contraction_bounds_random_sweep():
    rng = np.random.default_rng(9)
    for seed in range(5):
        form = cf.random_connected_form(25, seed=seed, signed_potential=True)
        for alpha in (0.2, 1.0, 3.0):
            f = active_vector(form, rng)
            rep = cf.check_resolvent_contraction(form, f, alpha)
            assert rep.energy_ok, (rep.q_smoothed, rep.q_input)
            assert rep.defect_ok, (rep.defect_energy, rep.q_input)
