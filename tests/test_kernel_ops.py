"""Principal values of positive kernel operators, Harnack certificates,
the liminf construction, and ergodicity probes."""
import json

import numpy as np
import pytest
import scipy.linalg

import critform as cf
from critform import resolvent
from critform.errors import (
    BadConfig,
    NonPositiveInput,
    NotIrreducible,
    NoViolationFound,
    ScheduleTooShort,
)
from critform.kernel_ops import ergodicity_check, heat_kernel_operator, ktilde

from conftest import count_calls, shifted


def make_op(n_target, n_source, seed, p=2.0):
    kernel, mu, nu = cf.random_kernel_data(n_target, n_source, seed)
    return cf.KernelOperator(kernel=kernel, mu=mu, nu=nu, p=p)


def operator_norm(op):
    """sigma_max of the similarity-transformed matrix: the L2(mu)->L2(nu) norm."""
    mat = np.sqrt(op.nu)[:, None] * op.kernel * np.sqrt(op.mu)[None, :]
    return float(scipy.linalg.svdvals(mat)[0])


def test_operator_validation():
    with pytest.raises(NonPositiveInput):
        cf.KernelOperator(kernel=np.array([[1.0, 0.0]]), mu=np.ones(2), nu=np.ones(1))
    with pytest.raises(NonPositiveInput):
        cf.KernelOperator(kernel=np.ones((2, 2)), mu=np.array([1.0, -1.0]), nu=np.ones(2))
    with pytest.raises(BadConfig):
        cf.KernelOperator(kernel=np.ones((2, 3)), mu=np.ones(2), nu=np.ones(2))
    with pytest.raises(BadConfig):
        cf.KernelOperator(kernel=np.ones((2, 2)), mu=np.ones(2), nu=np.ones(2), p=1.0)


def test_adjoint_is_the_dual_pairing():
    op = make_op(4, 6, seed=0)
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(6), rng.standard_normal(4)
    lhs = float(np.sum(op.apply(f) * g * op.nu))
    rhs = float(np.sum(f * op.adjoint(g) * op.mu))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ktilde_represents_tstar_t():
    op = make_op(5, 5, seed=1)
    kt = ktilde(op)
    assert np.allclose(kt, kt.T)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(5)
    assert np.allclose(kt @ (f * op.mu), op.adjoint(op.apply(f)), rtol=1e-12)


def test_principal_value_is_squared_norm():
    for seed in range(10):
        op = make_op(6 + seed % 3, 5 + seed % 4, seed=seed)
        lam, witness = cf.lambda_of(op)
        assert lam == pytest.approx(operator_norm(op) ** 2, rel=1e-8)
        assert np.all(witness > 0)
        assert np.max(witness) == pytest.approx(1.0)
        # the witness certifies a super-eigen inequality at level lam
        assert cf.check_super_eigen(op, lam, witness) <= 1e-8 * lam


def test_super_eigen_excess_detects_cheating():
    op = make_op(5, 5, seed=2)
    lam, witness = cf.lambda_of(op)
    assert cf.check_super_eigen(op, 0.5 * lam, witness) > 0
    with pytest.raises(NonPositiveInput):
        cf.check_super_eigen(op, lam, np.zeros(5))


def test_rank_one_kernel_general_p():
    """k(z, x) = a(z) b(x): the p -> p norm is |a|_{L^p(nu)} |b|_{L^q(mu)}."""
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0):
        a = rng.uniform(0.5, 2.0, 6)
        b = rng.uniform(0.5, 2.0, 7)
        mu = rng.uniform(0.5, 2.0, 7)
        nu = rng.uniform(0.5, 2.0, 6)
        op = cf.KernelOperator(kernel=np.outer(a, b), mu=mu, nu=nu, p=p)
        q = p / (p - 1.0)
        norm = (float(np.sum(a**p * nu)) ** (1 / p)
                * float(np.sum(b**q * mu)) ** (1 / q))
        lam, witness = cf.lambda_of(op, tol=1e-12)
        assert lam == pytest.approx(norm**p, rel=1e-8)
        assert cf.check_super_eigen(op, lam * (1 + 1e-9), witness) <= 1e-10


def test_general_p_agrees_with_power_iteration():
    op2 = make_op(6, 6, seed=3, p=2.0)
    lam2, _ = cf.lambda_of(op2)
    # same data run through the nonlinear fixed-point route
    op2b = cf.KernelOperator(kernel=op2.kernel, mu=op2.mu, nu=op2.nu, p=2.0 + 1e-12)
    lam2b, _ = cf.lambda_of(op2b, tol=1e-11)
    assert lam2b == pytest.approx(lam2, rel=1e-6)


def test_harnack_certificate_inequality():
    for seed in range(8):
        op = make_op(7, 7, seed=seed)
        lam, witness = cf.lambda_of(op)
        cert = cf.harnack_sets(op, target_mass=0.5, lam=lam)
        assert cert.mass_fraction >= 0.5
        members = np.array(cert.members)
        inside = witness[members]
        lhs = float(np.sum(inside * op.mu[members]))
        rhs = cert.D * float(np.min(inside))
        assert lhs <= rhs * (1 + 1e-10)
        # c really is the min of ktilde over the certified set
        kt = ktilde(op)
        assert cert.c == pytest.approx(float(np.min(kt[np.ix_(members, members)])))


def test_harnack_validation(two_path):
    op = make_op(4, 4, seed=0)
    with pytest.raises(BadConfig):
        cf.harnack_sets(op, target_mass=0.0, lam=1.0)
    with pytest.raises(BadConfig):
        cf.harnack_sets(op, target_mass=0.5, lam=-1.0)


def test_heat_kernel_operator_reproduces_semigroup():
    form = cf.random_tree_form(12, seed=6)
    op = heat_kernel_operator(form, t=0.7)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(form.n_active)
    full = np.zeros(form.n)
    full[form.active] = f
    expect = cf.semigroup_apply(form, full, 0.7)[form.active]
    assert np.allclose(op.apply(f), expect, rtol=1e-10, atol=1e-12)
    # symmetric kernel in the measure pairing: k(z,x) = k(x,z)
    assert np.allclose(op.kernel, op.kernel.T, rtol=1e-8, atol=1e-12)


def test_heat_kernel_matches_semigroup_columns():
    form = cf.random_connected_form(30, seed=1, extra_edge_prob=0.5, dirichlet_count=4)
    op = heat_kernel_operator(form, t=0.4)
    cols = np.empty((form.n_active, form.n_active))
    for j, v in enumerate(form.active):
        e = np.zeros(form.n)
        e[v] = 1.0
        cols[:, j] = cf.semigroup_apply(form, e, 0.4)[form.active]
    assert cols.min() > 1e-7               # no entry near rounding noise, so no floor
    # entries are sums over the eigenbasis: rounding is relative to the largest one
    expect = cols / form.active_measure[None, :]
    assert np.allclose(op.kernel, expect, rtol=1e-12, atol=1e-12 * expect.max())


def test_heat_kernel_floors_rounding_noise_on_long_paths():
    # On a 30-vertex path the far-corner entries of the time-1 semigroup are
    # analytically ~1e-31, below expm's ~1e-16 rounding noise, so the raw
    # columns contain spurious negatives.  A connected active block must still
    # produce a strictly positive kernel operator.
    form = cf.path_form(30)
    op = heat_kernel_operator(form, t=1.0)
    assert op.kernel.min() > 0
    built = cf.construct_excessive(
        form, g={"1": 1.0},
        alpha_schedule=cf.default_alpha_schedule(1.0, 1e-12, 0.5))
    assert built.excessive


def test_heat_kernel_rejects_disconnected_active_block():
    # A Dirichlet cut vertex splits the active block: those zeros are
    # structural, not rounding noise, and the operator must be refused.
    doc = {
        "vertices": [str(i) for i in range(7)],
        "edges": [[str(i), str(i + 1), 1.0] for i in range(6)],
        "dirichlet": ["3"],
    }
    form = cf.parse_graph_text(json.dumps(doc))
    with pytest.raises(NonPositiveInput):
        heat_kernel_operator(form, t=1.0)


# --- the liminf construction ---------------------------------------------------

def test_construct_on_pinned_path_recovers_green(pinned_path):
    built = cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",))
    assert built.excessive
    assert built.residual_min >= -1e-8
    assert built.stabilization_gap <= 1e-8
    # G delta_1 = min(n, 1) = (0, 1, 1, 1), already normalized at B = {1}
    vals = built.function.values
    assert vals[pinned_path.index("0")] == 0.0
    for v in ("1", "2", "3"):
        assert vals[pinned_path.index(v)] == pytest.approx(1.0, rel=1e-6)
    assert built.fatou_max_violation <= 1e-8


def test_construct_without_potential_finds_constants(two_path):
    built = cf.construct_excessive(two_path, B=("a", "b"))
    assert built.excessive
    assert np.allclose(built.function.values, 1.0, rtol=1e-6)


def test_construct_default_reference_set_via_heat_kernel():
    form = cf.random_connected_form(15, seed=9)
    built = cf.construct_excessive(form)
    assert built.excessive
    assert len(built.reference_set) >= 1
    assert built.fatou_max_violation <= 1e-6
    # normalization: min over the reference set is one
    idx = [form.index(v) for v in built.reference_set]
    assert float(np.min(built.function.values[idx])) == pytest.approx(1.0)


def test_construct_requires_irreducible():
    form = cf.build_form({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b", 1.0], ["c", "d", 1.0]],
    })
    with pytest.raises(NotIrreducible):
        cf.construct_excessive(form, B=("a",))


def test_construct_schedule_too_short(pinned_path):
    with pytest.raises(ScheduleTooShort):
        cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",),
                               alpha_schedule=[1.0, 0.5])
    with pytest.raises(ScheduleTooShort):
        # three widely spaced shifts cannot witness stabilization
        cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",),
                               alpha_schedule=[1.0, 0.5, 0.25])


def test_construct_makes_one_solve_per_schedule_shift(pinned_path, monkeypatch):
    schedule = cf.default_alpha_schedule(1.0, 1e-10, 0.5)
    solves = count_calls(monkeypatch, resolvent, "_shifted_solve")
    built = cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",), alpha_schedule=schedule)
    assert built.excessive
    assert [alpha for _, alpha, _ in solves] == list(schedule)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_construct_judges_excessivity_at_the_given_tolerance(seed):
    # three widely spaced shifts leave L h well below zero (about -0.17), which
    # tol_exc = 10 accepts in both the stabilization and the excessivity gate
    form = cf.random_connected_form(12, seed=seed)
    g = np.zeros(form.n)
    g[0] = 1.0
    built = cf.construct_excessive(form, g=g, B=[form.vertices[0]],
                                   alpha_schedule=(1.0, 0.5, 0.25), tol_exc=10)
    assert built.residual_min < -0.1
    assert built.excessive


def test_construct_rejects_boundary_reference(pinned_path):
    with pytest.raises(BadConfig):
        cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("0",))


def test_construct_along_exhaustion():
    exh = cf.dirichlet_path_exhaustion(radii=(10, 20, 40))
    # the tail gap scales like alpha_min / spectral gap (~6e-3 at R = 40), so
    # the 1e-8 stabilization gate needs shifts well below the default floor
    built = cf.construct_excessive(exh, alpha_schedule=cf.default_alpha_schedule(1.0, 1e-12, 0.5))
    assert built.excessive
    assert len(built.per_level) == 3
    for R, level_built in built.per_level:
        assert level_built.excessive, R
        assert level_built.reference_set == ("1",)


# --- ergodicity ----------------------------------------------------------------

def test_ergodicity_violation_found_for_positive_kernel():
    op = make_op(6, 6, seed=4)
    rep = ergodicity_check(op, A=[0, 2, 3], seed=4)
    assert rep.violated
    assert rep.lhs > rep.rhs
    assert rep.location not in (0, 2, 3)   # violation appears off A
    assert rep.n_tried == 1                # the constant function already works


def test_ergodicity_input_validation():
    op = make_op(4, 4, seed=0)
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[])
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[0, 1, 2, 3])
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[99])
