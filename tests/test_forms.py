"""Construction, validation, energy evaluation and the structural checks."""
import copy
import pickle
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import critform as cf
from critform.forms import SAMPLE_BLOCK_ENTRIES, evaluate_rows, sample_blocks
from critform.errors import (
    DisconnectedDirichletSpec,
    DomainMismatch,
    FormNotNonnegative,
    NonPositiveMeasure,
    NonSymmetricWeights,
    ParseError,
    SolverFailure,
)

from conftest import CACHED, active_vector, count_calls, form_spec


def test_vertices_are_sorted_and_indexed(triangle):
    assert triangle.vertices == ("a", "b", "c")
    assert triangle.index("b") == 1
    with pytest.raises(DomainMismatch):
        triangle.index("zz")


def test_energy_closed_form(two_path):
    # q(f) = (f(a) - f(b))^2
    f = np.array([3.0, 1.0])
    assert cf.evaluate(two_path, f) == pytest.approx(4.0)
    assert cf.evaluate(two_path, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_energy_with_potential_and_measure(triangle):
    f = {"a": 1.0, "b": -2.0, "c": 0.5}
    fv = np.array([1.0, -2.0, 0.5])
    by_hand = (
        1.0 * (1.0 - (-2.0)) ** 2
        + 2.0 * (-2.0 - 0.5) ** 2
        + 0.5 * (1.0 - 0.5) ** 2
        + 0.3 * 1.0**2 * 1.0
        + 0.0
        + 1.1 * 0.5**2 * 0.5
    )
    assert cf.evaluate(triangle, f) == pytest.approx(by_hand, rel=1e-14)
    # bilinear polarization
    g = np.array([0.2, 0.0, -1.0])
    pol = 0.25 * (cf.evaluate(triangle, fv + g) - cf.evaluate(triangle, fv - g))
    assert cf.evaluate_bilinear(triangle, fv, g) == pytest.approx(pol, rel=1e-12)


def test_operator_matches_bilinear_form(triangle):
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        lhs = cf.evaluate_bilinear(triangle, f, g)
        rhs = float(np.sum(cf.operator_apply(triangle, f) * g * triangle.measure))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dirichlet_vertices_are_frozen(pinned_path):
    assert pinned_path.dirichlet == frozenset({"0"})
    assert pinned_path.n_active == 3
    with pytest.raises(DomainMismatch):
        cf.evaluate(pinned_path, [1.0, 0.0, 0.0, 0.0])  # nonzero on the boundary


def test_duplicate_edges_must_agree():
    cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 2.0], ["b", "a", 2.0]]})
    with pytest.raises(NonSymmetricWeights):
        cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 2.0], ["b", "a", 3.0]]})


@pytest.mark.parametrize("bad_edge", [["a", "a", 1.0], ["a", "b", -0.5]])
def test_rejected_edges(bad_edge):
    with pytest.raises(NonSymmetricWeights):
        cf.build_form({"vertices": ["a", "b"], "edges": [bad_edge]})


def test_zero_weight_edges_are_dropped():
    form = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 0.0]]})
    assert form.n_edges == 0
    assert len(cf.irreducible_components(form)) == 2


def test_bad_measures_and_potentials():
    with pytest.raises(NonPositiveMeasure):
        cf.build_form({"vertices": ["a"], "edges": [], "mu": {"a": 0.0}})
    with pytest.raises(NonPositiveMeasure):
        cf.build_form({"vertices": ["a"], "edges": [], "mu": {"a": -1.0}})
    with pytest.raises(ParseError):
        cf.build_form({"vertices": ["a"], "edges": [], "potential": {"a": float("nan")}})
    with pytest.raises(ParseError):
        cf.build_form({"vertices": ["a"], "edges": [], "mu": {"zz": 1.0}})


# (graph description, the same input as arrays, the error both must raise)
INVALID_INPUTS = [
    ({"vertices": ["a", "a"], "edges": []},
     (["a", "a"], [], []), {}, ParseError),
    ({"vertices": [], "edges": []},
     ([], [], []), {}, ParseError),
    ({"vertices": ["a", "b"], "edges": [["a", "zz", 1.0]]},
     (["a", "b"], [[0, 2]], [1.0]), {}, ParseError),
    ({"vertices": ["a", "b"], "edges": [["b", "b", 1.0]]},
     (["a", "b"], [[1, 1]], [1.0]), {}, NonSymmetricWeights),
    ({"vertices": ["a", "b"], "edges": [["a", "b", -0.5]]},
     (["a", "b"], [[0, 1]], [-0.5]), {}, NonSymmetricWeights),
    ({"vertices": ["a", "b"], "edges": [["a", "b", 2.0], ["b", "a", 3.0]]},
     (["a", "b"], [[0, 1], [1, 0]], [2.0, 3.0]), {}, NonSymmetricWeights),
    ({"vertices": ["a", "b"], "edges": [], "mu": {"b": 0.0}},
     (["a", "b"], [], []), {"measure": [1.0, 0.0]}, NonPositiveMeasure),
    ({"vertices": ["a"], "edges": [], "mu": {"a": float("inf")}},
     (["a"], [], []), {"measure": [float("inf")]}, NonPositiveMeasure),
    ({"vertices": ["a"], "edges": [], "potential": {"a": float("nan")}},
     (["a"], [], []), {"potential": [float("nan")]}, ParseError),
    ({"vertices": ["a"], "edges": [], "dirichlet": ["b"]},
     (["a"], [], []), {"dirichlet": ["b"]}, DisconnectedDirichletSpec),
    ({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]], "potential": {"a": -10.0}},
     (["b", "a"], [[1, 0]], [1.0]), {"potential": [0.0, -10.0]}, FormNotNonnegative),
]


@pytest.mark.parametrize("spec,args,kwargs,error", INVALID_INPUTS)
def test_from_arrays_rejects_what_build_form_rejects(spec, args, kwargs, error):
    with pytest.raises(error):
        cf.build_form(spec)
    with pytest.raises(error):
        cf.GraphForm.from_arrays(*args, **kwargs)


def test_from_arrays_orders_vertices_and_edges(triangle):
    # the triangle fixture listed in reverse, edges reversed and repeated
    form = cf.GraphForm.from_arrays(
        ["c", "b", "a"], [[0, 1], [2, 0], [1, 2], [1, 0]], [2.0, 0.5, 1.0, 2.0],
        measure=[0.5, 2.0, 1.0], potential=[1.1, 0.0, 0.3])
    assert form.vertices == triangle.vertices
    assert np.array_equal(form.edge_index, triangle.edge_index)
    assert np.array_equal(form.weights, triangle.weights)
    assert np.array_equal(form.measure, triangle.measure)
    assert np.array_equal(form.potential, triangle.potential)


def test_unknown_spec_keys_rejected():
    with pytest.raises(ParseError):
        cf.build_form({"vertices": ["a"], "edges": [], "weights": {}})


def test_unknown_dirichlet_vertex():
    with pytest.raises(DisconnectedDirichletSpec):
        cf.build_form({"vertices": ["a"], "edges": [], "dirichlet": ["b"]})


def test_indefinite_potential_rejected():
    # c = -10 overwhelms the edge part on a 2-vertex graph
    with pytest.raises(FormNotNonnegative):
        cf.build_form({
            "vertices": ["a", "b"],
            "edges": [["a", "b", 1.0]],
            "potential": {"a": -10.0, "b": 0.0},
        })


def test_signed_but_nonnegative_potential_accepted():
    # ground-state design: h = (1, 2) is annihilated, so the form is >= 0
    # even though c(b) < 0
    form = cf.build_form({
        "vertices": ["a", "b"],
        "edges": [["a", "b", 1.0]],
        "potential": {"a": 1.0, "b": -0.25},
        "mu": {"a": 1.0, "b": 2.0},
    })
    assert cf.evaluate(form, [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


def with_constant_potential(form, c):
    return cf.GraphForm.from_arrays(form.vertices, form.edge_index, form.weights,
                                    form.measure, np.full(form.n, c), form.dirichlet)


def test_planted_negative_direction_on_a_long_path():
    # lambda_1 of the Dirichlet path 0..5000 is 4 sin^2(pi / 10^4); the constant
    # potential -(lambda_1 + 1e-8) plants the pencil eigenvalue -1e-8, 25 times
    # past tol = tol_psd * 4
    path = cf.dirichlet_path(5000)
    lam1 = 4 * np.sin(np.pi / 10_000) ** 2
    with pytest.raises(FormNotNonnegative) as info:
        with_constant_potential(path, -(lam1 + 1e-8))
    assert info.value.rayleigh == pytest.approx(-1e-8, rel=0.01)
    assert info.value.tol == pytest.approx(4e-10)
    with_constant_potential(path, -(lam1 - 1e-8))


@pytest.mark.parametrize("sign", [1, -1])
def test_planted_negative_direction_on_a_3d_box(sign, monkeypatch):
    # lattice(3, 14): 19,683 free vertices, lambda_1 = 12 sin^2(pi / 56); the
    # conjugate gradients of the one solve yield the witness, and no
    # factorization is made
    box = cf.lattice(3, 14)
    c = -(12 * np.sin(np.pi / 56) ** 2 + sign * 1e-6)
    factorizations = count_calls(monkeypatch, spla, "splu")
    if sign > 0:
        with pytest.raises(FormNotNonnegative) as info:
            with_constant_potential(box, c)
        assert info.value.rayleigh == pytest.approx(-1e-6, rel=0.01)
        assert factorizations == []
    else:
        assert with_constant_potential(box, c).n_active == 27 ** 3


def spread_path_spec(c, n=60):
    # mu falls from 1 to 1e-8 along a Dirichlet path; b = sqrt(mu_v mu_v+1)
    # keeps the normalized operator, and with it tol, of order one
    mu = 10.0 ** (-8 * np.arange(n) / (n - 1))
    return {"vertices": [str(v) for v in range(n)],
            "edges": [[str(v), str(v + 1), float(np.sqrt(mu[v] * mu[v + 1]))]
                      for v in range(n - 1)],
            "mu": {str(v): float(m) for v, m in enumerate(mu)},
            "potential": {str(v): c for v in range(n)},
            "dirichlet": ["0", str(n - 1)]}


@pytest.mark.parametrize("sign", [1, -1])
def test_signed_document_with_measure_spread_over_eight_orders(sign):
    # the constant potential -(lambda_1 +- 1e-6) moves the pencil minimum to
    # -+1e-6; a rounding bound measured against (tol/2) min mu, about 3e-18,
    # instead of the scaled pencil would refuse the nonnegative form
    free = cf.build_form(spread_path_spec(0.0))
    lam1 = scipy.linalg.eigh(free.active_form_matrix.toarray(), np.diag(free.active_measure),
                             eigvals_only=True, subset_by_index=[0, 0])[0]
    spec = spread_path_spec(-(lam1 + sign * 1e-6))
    if sign > 0:
        with pytest.raises(FormNotNonnegative):
            cf.build_form(spec)
    else:
        assert cf.build_form(spec).potential.min() < 0


def test_spread_measure_does_not_inflate_the_nonnegativity_tolerance():
    # conjugating a Dirichlet path by h = 2^-index spreads mu over 80 octaves:
    # the row sums of M^-1 |Q| reach 8e11, and tol_psd times them (82) would
    # hide the planted pencil eigenvalue 0.0062 - 0.0162 = -0.010
    path = cf.dirichlet_path(40)
    form = cf.ground_state_transform(path, 2.0 ** -np.arange(path.n)).form
    assert form.operator_norm_bound > 1e11
    assert form.symmetric_norm_bound <= 4.0
    lam = scipy.linalg.eigvalsh(form.active_form_matrix.toarray(), np.diag(form.active_measure))
    assert 5e-3 < lam[0] < 7e-3
    with pytest.raises(FormNotNonnegative) as info:
        cf.GraphForm.from_arrays(form.vertices, form.edge_index, form.weights, form.measure,
                                 form.potential - 0.0162, form.dirichlet)
    assert lam[0] - 0.0162 - 1e-12 <= info.value.rayleigh < -info.value.tol / 2
    assert info.value.tol < 1e-9


def test_too_large_rounding_bound_is_not_a_certificate(monkeypatch):
    # a supersolution that never clears its rounding bound proves nothing, and
    # a positive u, whose negative part is zero, is no witness against the form
    monkeypatch.setattr(cf.resolvent, "_supersolution_proves", lambda Q, s, u: False)
    with pytest.raises(SolverFailure):
        cf.random_connected_form(30, seed=2, signed_potential=True)
    cf.random_connected_form(30, seed=2)            # c >= 0 needs no certificate


def test_nonnegativity_proof_needs_one_solve_and_no_factorization(monkeypatch):
    # accepting a signed form takes one solve and one supersolution check;
    # rejecting it takes the same one solve and a witness check
    calls = count_calls(monkeypatch, spla, "splu")
    form = cf.random_connected_form(300, seed=3, signed_potential=True, dirichlet_count=2)
    assert form.potential.min() < 0
    assert len(calls) == 1                          # the SuperLU solve of 298 unknowns
    lam1 = scipy.linalg.eigvalsh(form.active_form_matrix.toarray(),
                                 np.diag(form.active_measure))[0]
    with pytest.raises(FormNotNonnegative) as info:
        cf.GraphForm.from_arrays(form.vertices, form.edge_index, form.weights, form.measure,
                                 form.potential - lam1 - 1e-6, form.dirichlet)
    assert -1e-6 - 1e-12 <= info.value.rayleigh < -info.value.tol / 2
    assert len(calls) == 2                          # one solve per verdict


def bits(M):
    """The stored CSR arrays of M, byte for byte."""
    return M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


@pytest.mark.parametrize("make", [
    lambda: cf.random_connected_form(150, seed=4, signed_potential=True),
    lambda: cf.random_connected_form(150, seed=5, dirichlet_count=3),
    lambda: cf.random_tree_form(150, seed=6),
    lambda: cf.lattice(2, 6),
], ids=["signed", "dirichlet", "tree", "lattice2d"])
def test_assembly_matches_the_fancy_index_expressions_bit_for_bit(make):
    form = make()
    n, act = form.n, form.active
    i, j, b = form.edge_index[:, 0], form.edge_index[:, 1], form.weights
    deg = np.zeros(n)
    np.add.at(deg, i, b)
    np.add.at(deg, j, b)
    Q = sp.csr_matrix((np.concatenate([-b, -b, deg + form.potential * form.measure]),
                       (np.concatenate([i, j, np.arange(n)]),
                        np.concatenate([j, i, np.arange(n)]))), shape=(n, n))
    assert bits(form.form_matrix) == bits(Q)
    assert bits(form.active_form_matrix) == bits(Q[act][:, act].tocsr())
    assert (form.active_form_matrix is form.form_matrix) == (not form.dirichlet)
    h = np.zeros(n)
    h[act] = np.random.default_rng(n).uniform(0.5, 2.0, act.size)
    Lh = (Q[act] @ h) / form.measure[act]
    assert cf.operator_apply(form, h)[act].tobytes() == Lh.tobytes()
    assert cf.resolvent._excessivity_gate(form, h, 1e-9)[1] == float(Lh.min())
    d = 1.0 / np.sqrt(form.active_measure)
    reference = float(np.max(d * (abs(Q[act][:, act]) @ d)))
    assert form.symmetric_norm_bound == pytest.approx(reference, rel=1e-14)
    assert vars(form)["symmetric_norm_bound"] == form.symmetric_norm_bound


def test_first_bd_sweep_nonpositive():
    rng = np.random.default_rng(0)
    for k in range(5):
        form = cf.random_connected_form(12, seed=k, signed_potential=bool(k % 2))
        assert cf.check_first_bd(form, n_samples=50, seed=k) <= 1e-10


@pytest.mark.parametrize("n_samples, width", [
    (0, 5), (7, 0), (50, 13),
    (300, 1000),                        # 3e5 entries: split into five blocks
    (3, SAMPLE_BLOCK_ENTRIES + 1),      # a row wider than the cap: one row per block
])
def test_sample_blocks_repeat_the_per_sample_draws(n_samples, width):
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    blocks = list(sample_blocks(rng, n_samples, width))
    expect = np.array([ref.standard_normal(width) for _ in range(n_samples)])
    rows = np.concatenate(blocks) if blocks else np.empty((0, width))
    assert np.array_equal(rows, expect.reshape(n_samples, width))
    assert all(b.shape[0] == 1 or b.size <= SAMPLE_BLOCK_ENTRIES for b in blocks)
    assert len(blocks) > 1 or n_samples * width <= SAMPLE_BLOCK_ENTRIES
    assert rng.integers(1 << 30) == ref.integers(1 << 30)   # the same state afterwards


def test_sample_blocks_split_interleaved_pairs():
    # rows of width 2m hold the f/g pairs of alternating m-draws
    m = 11
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    pairs = np.concatenate(list(sample_blocks(rng, 40, 2 * m)))
    for P in pairs:
        assert np.array_equal(P[:m], ref.standard_normal(m))
        assert np.array_equal(P[m:], ref.standard_normal(m))


def test_evaluate_rows_matches_evaluate():
    rng = np.random.default_rng(11)
    for k in range(6):
        form = cf.random_connected_form(15 + 5 * k, seed=k, signed_potential=True,
                                        dirichlet_count=3)
        assert form.n_active < form.n and np.any(form.potential < 0)
        X = rng.standard_normal((20, form.n_active))
        got = evaluate_rows(form, X)
        for x, q in zip(X, got):
            f = np.zeros(form.n)
            f[form.active] = x
            assert q == pytest.approx(cf.evaluate(form, f), rel=1e-12)


def _unit_samples(form, n_samples, seed):
    """The per-sample draws of the structural checks, normalized in mu-norm."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        f = np.zeros(form.n)
        f[form.active] = rng.standard_normal(form.n_active)
        norm = np.sqrt(float(np.sum(f * f * form.measure)))
        if norm != 0.0:
            yield f / norm


def test_first_bd_and_corroboration_match_per_sample_loops(block_cap):
    for k in range(6):
        form = cf.random_connected_form(10 + 4 * k, seed=k, signed_potential=bool(k % 2),
                                        dirichlet_count=k % 3)
        subset = list(form.vertices[::2])
        in_a = np.isin(form.vertices, subset) & ~form.boundary_mask
        for seed in (0, 7):
            worst = max((cf.evaluate(form, np.abs(f)) - cf.evaluate(form, f)
                         for f in _unit_samples(form, 30, seed)), default=-np.inf)
            assert cf.check_first_bd(form, 30, seed) == pytest.approx(worst, rel=1e-12, abs=1e-12)
            gap = max((cf.evaluate(form, f * in_a) - cf.evaluate(form, f)
                       for f in _unit_samples(form, 25, seed)), default=-np.inf)
            rep = cf.is_invariant_set(form, subset, n_samples=25, seed=seed)
            assert rep.corroboration_gap == pytest.approx(gap, rel=1e-12, abs=1e-12)


def test_structural_checks_without_samples(triangle, all_dirichlet):
    assert cf.check_first_bd(triangle, n_samples=0) == -np.inf
    assert cf.is_invariant_set(triangle, ["a"], n_samples=0).corroboration_gap == -np.inf
    assert cf.check_first_bd(all_dirichlet, n_samples=10) == -np.inf
    assert cf.is_invariant_set(all_dirichlet, ["a"], n_samples=10).corroboration_gap == -np.inf


def test_lattice_inequality_gap_nonnegative(triangle):
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        assert cf.check_lattice_inequality(triangle, f, g) >= -1e-10


def test_invariant_set_detection():
    # two components: {a, b} and {c}
    form = cf.build_form({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b", 1.0]],
    })
    rep = cf.is_invariant_set(form, ["a", "b"])
    assert rep.invariant and rep.crossing_edges == ()
    assert rep.corroboration_gap <= 1e-10

    rep2 = cf.is_invariant_set(form, ["a"])  # cuts the a-b edge
    assert not rep2.invariant
    assert ("a", "b") in rep2.crossing_edges
    # the constructed witness realizes a strict energy increase
    assert rep2.witness_gap > 0


def test_invariant_set_unknown_vertex(triangle):
    with pytest.raises(DomainMismatch):
        cf.is_invariant_set(triangle, ["nope"])


def test_irreducible_components_split():
    form = cf.build_form({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b", 1.0], ["c", "d", 1.0]],
    })
    comps = cf.irreducible_components(form)
    assert comps == [("a", "b"), ("c", "d")]
    assert not cf.forms.is_irreducible(form)


def test_vertex_function_round_trip(triangle):
    vf = cf.VertexFunction(triangle.vertices, np.array([1.0, 2.0, 3.0]))
    assert cf.forms.as_function(triangle, vf)[1] == 2.0
    assert vf.as_mapping()["c"] == 3.0
    with pytest.raises(DomainMismatch):
        cf.forms.as_function(triangle, np.ones(5))
    with pytest.raises(DomainMismatch):
        cf.VertexFunction.from_mapping(triangle, {"zz": 1.0})


def test_form_spec_round_trip(triangle):
    rebuilt = cf.build_form(form_spec(triangle))
    rng = np.random.default_rng(11)
    f = rng.standard_normal(3)
    assert cf.evaluate(rebuilt, f) == pytest.approx(cf.evaluate(triangle, f), rel=1e-15)


def test_cache_is_per_instance():
    a = cf.path_form(4)
    b = cf.path_form(4)
    _ = a.form_matrix
    assert "form_matrix" in vars(a) and "form_matrix" not in vars(b)
    f = active_vector(b, np.random.default_rng(1))
    assert cf.evaluate(b, f) >= 0


def test_forms_compare_and_hash_by_identity():
    f = cf.path_form(3)
    assert f == f
    assert f != cf.path_form(3)
    assert {f: "f"}[f] == "f"
    assert f in {f} and cf.path_form(3) not in {f}


@pytest.mark.parametrize("duplicate", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("make", [
    lambda: cf.random_connected_form(30, seed=2, dirichlet_count=3, signed_potential=True),
    lambda: cf.lattice(2, 3),
], ids=["signed-dirichlet", "lattice2d"])
def test_copies_derive_bit_identical_state(make, duplicate):
    form = make()
    twin = duplicate(form)
    assert twin is not form and twin != form
    assert bits(twin.form_matrix) == bits(form.form_matrix)
    assert bits(twin.active_form_matrix) == bits(form.active_form_matrix)
    assert twin.operator_norm_bound.hex() == form.operator_norm_bound.hex()
    assert twin.vertices == form.vertices
    assert not any(getattr(twin, name).flags.writeable for name in
                   ("edge_index", "weights", "measure", "potential", "boundary_mask"))


def state_bits(value):
    """A derived value of a form as comparable bytes."""
    if sp.issparse(value):
        return bits(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(state_bits, value))
    if isinstance(value, frozenset):
        return sorted(value)
    return repr(value)


def test_threads_reading_one_fresh_form_agree():
    def make():
        return cf.random_connected_form(60, seed=8, dirichlet_count=3)
    names = sorted(CACHED)
    alone = make()
    reference = {name: state_bits(getattr(alone, name)) for name in names}
    form = make()
    barrier = threading.Barrier(8)
    seen = []

    def read(k):
        barrier.wait(timeout=60)
        seen.append({name: state_bits(getattr(form, name))
                     for name in (names if k % 2 else names[::-1])})

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(seen) == 8
    assert all(values == reference for values in seen)
