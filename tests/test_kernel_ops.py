"""Principal values of positive kernel operators, Harnack certificates,
the liminf construction, and ergodicity probes."""
import json

import numpy as np
import pytest
import scipy.linalg

import critform as cf
from critform import resolvent, solvers
from critform.errors import (
    BadConfig,
    NonPositiveInput,
    NotIrreducible,
    NoViolationFound,
    ScheduleTooShort,
    SolverFailure,
)
from critform.forms import as_function
from critform.kernel_ops import (
    _active_block_connected,
    ergodicity_check,
    heat_kernel_operator,
    ktilde,
)

from conftest import backends_per_call, count_calls, shifted


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


def test_rank_one_kernel_general_p(monkeypatch):
    """k(z, x) = a(z) b(x): the p -> p norm is |a|_{L^p(nu)} |b|_{L^q(mu)}."""
    monkeypatch.setattr(cf.kernel_ops, "LAMBDA_TOL", 1e-12)
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
        lam, witness = cf.lambda_of(op)
        assert lam == pytest.approx(norm**p, rel=1e-8)
        assert cf.check_super_eigen(op, lam * (1 + 1e-9), witness) <= 1e-10


def test_general_p_agrees_with_power_iteration(monkeypatch):
    op2 = make_op(6, 6, seed=3, p=2.0)
    lam2, _ = cf.lambda_of(op2)
    # same data run through the nonlinear fixed-point route
    op2b = cf.KernelOperator(kernel=op2.kernel, mu=op2.mu, nu=op2.nu, p=2.0 + 1e-12)
    monkeypatch.setattr(cf.kernel_ops, "LAMBDA_TOL", 1e-11)
    lam2b, _ = cf.lambda_of(op2b)
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


def _path_abc(dirichlet, extra=()):
    return cf.build_form({
        "vertices": ["a", "b", "c", *extra],
        "edges": [["a", "b", 1.0], ["b", "c", 1.0]],
        "potential": {"a": 0.5, "c": 0.5},
        "dirichlet": dirichlet,
    })


def test_construct_rejects_a_dirichlet_cut_of_its_block():
    # the full path is connected, but the resolvent lives on {a, c}, and
    # there nothing leads from the source a to c
    with pytest.raises(NotIrreducible):
        cf.construct_excessive(_path_abc(["b"]), g={"a": 1.0}, B=("a",))


def test_construct_ignores_an_isolated_dirichlet_vertex():
    built = cf.construct_excessive(_path_abc(["d"], extra=["d"]), g={"a": 1.0}, B=("a",))
    assert built.excessive
    assert np.all(built.function.values[:3] > 0) and built.function.values[3] == 0.0


def test_construct_schedule_too_short(pinned_path):
    with pytest.raises(ScheduleTooShort):
        cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",),
                               alpha_schedule=[1.0, 0.5])
    with pytest.raises(ScheduleTooShort):
        # three widely spaced shifts cannot witness stabilization
        cf.construct_excessive(pinned_path, g={"1": 1.0}, B=("1",),
                               alpha_schedule=[1.0, 0.5, 0.25])


def full_schedule_construction(form, g, schedule, B_ids, fatou_t=(0.1, 1.0, 10.0)):
    """Reference liminf construction: solve every shift of the schedule, keep
    the running minimum of every tail, and normalize the last iterate once
    more.  Returns the fields an ExcessiveConstruction carries, or None when
    the tail minima are still moving."""
    tol = cf.tolerance("tol_exc")
    act = form.active
    gv = np.asarray(as_function(form, g), dtype=float).copy()
    gv[form.boundary_mask] = 0.0
    B_pos = [int(np.searchsorted(act, form.index(v))) for v in B_ids]
    iterates = []
    for alpha in schedule:
        u = cf.resolvent_apply(form, gv, alpha)[act]
        iterates.append(u / float(np.min(u[B_pos])))
    tail = iterates[-1].copy()
    tails = [tail.copy()]
    for v in reversed(iterates[:-1]):
        tail = np.minimum(tail, v)
        tails.append(tail.copy())
    tails.reverse()
    last, probe = tails[-1], tails[-3]
    gap = float(np.max(np.abs(probe - last) / np.maximum(np.abs(last), 1e-300)))
    if gap > tol:
        return None
    h = np.zeros(form.n)
    h[act] = last / float(np.min(last[B_pos]))
    _, residual_min, excessive = resolvent._excessivity_gate(form, h, tol)
    violation = 0.0
    for t in fatou_t:
        th = cf.semigroup_apply(form, h, t)[act]
        violation = max(violation, float(np.max(th - h[act])) / float(np.max(h[act])))
    return {"values": h, "residual_min": residual_min, "stabilization_gap": gap,
            "excessive": excessive, "fatou_t": tuple(fatou_t),
            "fatou_max_violation": violation, "reference_set": tuple(B_ids)}


def assert_matches_reference(built, ref):
    assert built.function.values.tobytes() == ref["values"].tobytes()
    for key in ("residual_min", "stabilization_gap", "excessive", "fatou_t",
                "fatou_max_violation", "reference_set"):
        assert getattr(built, key) == ref[key], key


def harnack_reference_set(form):
    """B as chosen through the certificate, with lambda computed first."""
    op = heat_kernel_operator(form, t=1.0)
    lam, _ = cf.lambda_of(op)
    members = cf.harnack_sets(op, 0.5, lam).members
    return tuple(form.vertices[form.active[i]] for i in members)


@pytest.mark.parametrize("dirichlet_count", [0, 3])
def test_construct_matches_the_full_schedule_reference(dirichlet_count):
    default = tuple(cf.default_alpha_schedule(1.0, 1e-10, 0.5))
    explicit = tuple(cf.default_alpha_schedule(2.0, 1e-11, 0.3))
    forms = [cf.random_connected_form(8 + 3 * seed, seed=seed, extra_edge_prob=0.3,
                                      dirichlet_count=dirichlet_count) for seed in range(40)]
    # a Dirichlet cut leaves no heat-kernel Harnack set to compare
    forms = [form for form in forms if _active_block_connected(form)][:8]
    assert len(forms) == 8
    built_ok = 0
    for form in forms:
        g = np.zeros(form.n)
        g[form.active[0]] = 1.0
        cases = [
            ({}, np.ones(form.n), default, harnack_reference_set(form)),
            ({"g": g, "B": [form.vertices[form.active[-1]]]}, g, default,
             (form.vertices[form.active[-1]],)),
            ({"alpha_schedule": explicit}, np.ones(form.n), explicit,
             harnack_reference_set(form)),
        ]
        for kwargs, gv, schedule, B_ids in cases:
            ref = full_schedule_construction(form, gv, schedule, B_ids)
            if ref is None:
                with pytest.raises(ScheduleTooShort):
                    cf.construct_excessive(form, **kwargs)
                continue
            built = cf.construct_excessive(form, **kwargs)
            assert built.schedule == schedule
            assert_matches_reference(built, ref)
            built_ok += 1
    assert built_ok >= 16


def test_construct_along_exhaustion_matches_the_full_schedule_reference():
    exh = cf.lattice_exhaustion(2, (4, 6, 8))
    schedule = tuple(cf.default_alpha_schedule(1.0, 1e-10, 0.5))
    built = cf.construct_excessive(exh)
    assert [R for R, _ in built.per_level] == [4, 6, 8]
    for R, level_built in built.per_level:
        level = exh.level(R)
        ref = full_schedule_construction(level, {exh.root: 1.0}, schedule, (exh.root,))
        assert_matches_reference(level_built, ref)
    assert_matches_reference(built, ref)


def test_construct_solves_only_the_last_three_shifts(backends, monkeypatch):
    exh = cf.dirichlet_path_exhaustion(radii=(10, 20, 40))
    schedule = cf.default_alpha_schedule(1.0, 1e-12, 0.5)
    solves = backends_per_call(monkeypatch, resolvent, "solve_spd", backends)
    built = cf.construct_excessive(exh, alpha_schedule=schedule)
    assert built.excessive
    assert built.schedule == tuple(schedule)
    # one call per level, its three shifts factored inside it and nothing kept
    assert [made for _, made in solves] == [["dgetrf"] * 3] * 3 and len(backends) == 9
    for (args, _), radius in zip(solves, exh.radii):
        level = exh.level(radius)
        assert np.array_equal(args[2], np.multiply.outer(schedule[-3:], level.active_measure))


def test_construct_never_computes_a_principal_value(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lambda_of called")
    monkeypatch.setattr(cf.kernel_ops, "lambda_of", refuse)
    form = cf.random_connected_form(15, seed=9)
    built = cf.construct_excessive(form)
    assert built.excessive
    assert built.reference_set


def test_construct_below_the_power_iteration_reach():
    # the construction never asks for lambda, which on this heat kernel takes
    # a dense eigh (20,000 power steps do not close its bracket to 1e-10)
    built = cf.construct_excessive(cf.path_form(300),
                                   alpha_schedule=cf.default_alpha_schedule(1, 1e-14, 0.5))
    assert built.excessive


def test_construct_certifies_every_tail_residual_before_reading_b(monkeypatch):
    # one solve_spd call solves and certifies the three tail shifts, so the
    # last shift's failed residual wins over the first shift's iterate
    # vanishing on B (which alone passes the loosened residual gate)
    form = cf.random_connected_form(15, seed=9)
    B, schedule = form.vertices[3], (4.0, 2.0, 1.0)
    first, last = (alpha * form.active_measure[0] for alpha in (schedule[0], schedule[-1]))
    solve = solvers._solve

    def broken(A, b, shift=None):
        u = solve(A, b, shift)
        for column, s in zip(u.T, shift):
            if s[0] == first:
                column[form.index(B)] = 0.0
            if s[0] == last:
                column *= 1e6
        return u

    monkeypatch.setattr(solvers, "_solve", broken)
    with cf.job_tolerances({"tol_solve": 1.0}), pytest.raises(SolverFailure):
        cf.construct_excessive(form, alpha_schedule=schedule, B=(B,))


def test_construct_reads_no_shift_before_the_last_three():
    # at alpha = 1 the iterate underflows to 0 at vertex 1, 799 edges from g;
    # at the shifts the result reads it is near the Green function G(x, 800) = x
    form = cf.path_form(800)
    built = cf.construct_excessive(form, g={"800": 1.0}, B=("1",))
    assert built.excessive
    x = np.array([float(v) for v in form.vertices])
    assert np.allclose(built.function.values, x, rtol=1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_construct_judges_excessivity_at_the_given_tolerance(seed):
    # three widely spaced shifts leave L h well below zero (about -0.17), which
    # tol_exc = 10 accepts in both the stabilization and the excessivity gate
    form = cf.random_connected_form(12, seed=seed)
    g = np.zeros(form.n)
    g[0] = 1.0
    with cf.job_tolerances({"tol_exc": 10}):
        built = cf.construct_excessive(form, g=g, B=[form.vertices[0]],
                                       alpha_schedule=(1.0, 0.5, 0.25))
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
    rep = ergodicity_check(op, A=[0, 2, 3])
    assert rep.violated
    assert rep.lhs > rep.rhs
    assert rep.location not in (0, 2, 3)   # violation appears off A
    assert rep.n_tried == 1                # the constant function decides
    assert np.all(rep.witness == 1.0)


def test_ergodicity_underflow_finds_no_violation():
    # entries of 1e-200: T* T 1_A is of size 1e-400 and underflows to 0 on
    # both sides, so even the constant function shows no violation
    op = cf.KernelOperator(kernel=np.full((4, 4), 1e-200), mu=np.ones(4), nu=np.ones(4))
    with pytest.raises(NoViolationFound, match="numerically degenerate"):
        ergodicity_check(op, A=[0, 1])


def test_ergodicity_input_validation():
    op = make_op(4, 4, seed=0)
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[])
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[0, 1, 2, 3])
    with pytest.raises(BadConfig):
        ergodicity_check(op, A=[99])
