"""Built-in families and the seeded random instance generators."""
import numpy as np
import pytest

import critform as cf
from critform import families
from critform.errors import BadConfig, DomainMismatch, UnknownFamily

from conftest import count_calls, spec_lattice


def test_lattice_shapes():
    for d in (1, 2, 3):
        R = 3
        form = cf.lattice(d, R)
        assert form.n == (2 * R + 1) ** d
        shell = sum(1 for v in form.vertices if v in form.dirichlet)
        assert shell == (2 * R + 1) ** d - (2 * R - 1) ** d
        assert form.n_edges == d * (2 * R + 1) ** (d - 1) * (2 * R)
        root = ",".join(["0"] * d)
        assert root in form.vertices and root not in form.dirichlet
    with pytest.raises(BadConfig):
        cf.lattice(4, 2)
    with pytest.raises(BadConfig):
        cf.lattice(2, 0)


def test_lattice_edges_are_unit_weight():
    form = cf.lattice(2, 2)
    assert np.all(form.weights == 1.0)
    assert np.all(form.measure == 1.0)
    assert np.all(form.potential == 0.0)


def test_dirichlet_path_has_two_absorbing_ends():
    form = cf.dirichlet_path(5)
    assert form.dirichlet == frozenset({"0", "5"})
    assert form.n_active == 4
    with pytest.raises(BadConfig):
        cf.dirichlet_path(1)


def test_birth_death_weights_grow_polynomially():
    form = cf.birth_death(2.0, 4)
    w = {(form.vertices[i], form.vertices[j]): b
         for (i, j), b in zip(form.edge_index, form.weights)}
    assert w[("0", "1")] == 1.0
    assert w[("3", "4")] == 16.0
    assert form.dirichlet == frozenset({"4"})


def test_builtin_family_dispatch():
    exh = cf.builtin_family("lattice", {"d": 1, "radii": [4, 8]})
    assert exh.radii == (4, 8) and exh.root == "0"
    exh2 = cf.builtin_family("dirichlet_path", None)
    assert exh2.root == "1"
    exh3 = cf.builtin_family("birth_death", {"beta": 2, "gamma": 1})
    assert exh3.root == "0"


def test_builtin_family_errors():
    with pytest.raises(UnknownFamily):
        cf.builtin_family("torus", {})
    with pytest.raises(BadConfig):
        cf.builtin_family("lattice", {})               # missing d
    with pytest.raises(BadConfig):
        cf.builtin_family("lattice", {"d": 1, "spin": 3})
    with pytest.raises(BadConfig):
        cf.builtin_family("lattice", {"d": 1, "radii": ["x"]})


def test_random_tree_is_connected_and_deterministic():
    a = cf.random_tree_form(40, seed=11)
    b = cf.random_tree_form(40, seed=11)
    assert a.n_edges == 39
    assert len(cf.irreducible_components(a)) == 1
    assert np.array_equal(a.weights, b.weights)
    assert np.all(a.potential > 0)
    c = cf.random_tree_form(40, seed=12)
    assert not np.array_equal(a.weights, c.weights)


def test_random_connected_form_flags():
    form = cf.random_connected_form(30, seed=2, dirichlet_count=3)
    assert len(form.dirichlet) == 3
    assert len(cf.irreducible_components(form)) == 1
    signed = cf.random_connected_form(30, seed=2, signed_potential=True)
    # the signed generator must actually produce negative entries somewhere
    # (while the form stays nonnegative, or build_form would have raised)
    assert np.any(signed.potential < 0)


def test_random_kernel_data_strictly_positive():
    kernel, mu, nu = cf.random_kernel_data(5, 7, seed=3)
    assert kernel.shape == (5, 7)
    assert np.all(kernel > 0) and np.all(mu > 0) and np.all(nu > 0)


# ---------------------------------------------------------------------------
# array-built levels against the string-keyed graph descriptions they replace
# ---------------------------------------------------------------------------

def spec_chain(R, weights, dirichlet, name, potential=None):
    spec = {
        "vertices": [str(n) for n in range(R + 1)],
        "edges": [[str(n), str(n + 1), weights(n)] for n in range(R)],
        "dirichlet": dirichlet,
        "name": name,
    }
    if potential is not None:
        spec["potential"] = {str(n): potential(n) for n in range(R)}
    return spec


def spec_birth_death(beta, R, gamma=None):
    def b(k):
        return float(k + 1) ** beta

    def h(k):
        return float(k + 1) ** (-gamma)

    def pot(n):
        l0 = b(n) * (h(n) - h(n + 1))
        if n > 0:
            l0 += b(n - 1) * (h(n) - h(n - 1))
        return -l0 / h(n)

    return spec_chain(R, b, [str(R)], f"birth-death-b{beta}-R{R}",
                      None if gamma is None else pot)


def assert_same_form(a, b):
    assert a.vertices == b.vertices
    assert a.edge_index.dtype == b.edge_index.dtype
    assert np.array_equal(a.edge_index, b.edge_index)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.measure, b.measure)
    assert np.array_equal(a.potential, b.potential)
    assert a.dirichlet == b.dirichlet
    assert np.array_equal(a.boundary_mask, b.boundary_mask)
    assert a.name == b.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_matches_graph_description(d):
    for R in (1, 2, 5, 12 if d < 3 else 6):
        assert_same_form(cf.lattice(d, R), cf.build_form(spec_lattice(d, R)))


def non_canonical_ids(d, R):
    """Ids no level of ``lattice(d, R)`` holds: first coordinates that int()
    accepts in a non-canonical spelling, too few or too many coordinates, a
    coordinate outside the box.  For d = 3 the first seven are
    "+1,0,0", "01,0,0", "1_0,0,0", " 1,0,0", "-0,0,0", "0,0" and "0,0,0,0"."""
    zeros = ["0"] * (d - 1)
    return ([",".join([c] + zeros) for c in ("+1", "01", "1_0", " 1", "-0")]
            + [",".join(zeros), ",".join(zeros + ["0", "0"]),
               ",".join([str(R + 1)] + zeros), ",".join(zeros + [str(-R - 1)]),
               "0,", "x", 0, None])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_id_lookup_matches_the_id_dict(d):
    for R in ((1, 2, 4) if d == 3 else (1, 2, 4, 11)):
        level, reference = cf.lattice(d, R), cf.build_form(spec_lattice(d, R))
        ids = reference.vertices
        assert level.indices(ids) == reference.indices(ids) == list(range(len(ids)))
        assert [level.index(v) for v in ids[::7]] == list(range(0, len(ids), 7))
        for v in non_canonical_ids(d, R):
            for form in (level, reference):
                with pytest.raises(DomainMismatch, match="unknown vertex id"):
                    form.index(v)


def test_lattice_root_must_be_spelled_canonically():
    exh = cf.Exhaustion(generator=lambda R: cf.lattice(3, R), radii=(2, 3), root="+0,0,0")
    with pytest.raises(DomainMismatch, match=r"root '\+0,0,0' missing from level 2"):
        cf.classify(exh)


def test_lattice_builds_its_ids_only_when_read():
    level = cf.lattice(3, 4)
    root = level.index("0,0,0")
    assert level.indices(["4,0,0", "-1,-1,-1"]) == [level.index("4,0,0"), 0]
    assert level.n == 729 and level.boundary_mask[level.index("4,0,0")]
    assert not level.boundary_mask[root] and level.n_active == 343
    assert "vertices" not in vars(level) and "dirichlet" not in vars(level)
    reference = cf.build_form(spec_lattice(3, 4))
    # one id, as an error message names it, without the tuple
    picks = (0, 100, 728)
    assert [level._ids[k] for k in picks] == [reference.vertices[k] for k in picks]
    assert "vertices" not in vars(level)
    assert level.vertices == reference.vertices
    assert level.vertices is level.vertices
    assert level.dirichlet == reference.dirichlet
    assert level.dirichlet is level.dirichlet


def test_paths_match_graph_descriptions():
    for R in (2, 9, 10, 101):
        assert_same_form(cf.dirichlet_path(R), cf.build_form(
            spec_chain(R, lambda n: 1.0, ["0", str(R)], f"dirichlet-path-R{R}")))
        assert_same_form(cf.path_form(R), cf.build_form(
            spec_chain(R, lambda n: 1.0, ["0"], f"path-N{R}")))


@pytest.mark.parametrize("beta,gamma", [(2.0, None), (2.0, 1.0), (0.5, None),
                                        (1.5, 0.3), (3.0, 1.3)])
def test_birth_death_matches_graph_description(beta, gamma):
    for R in (2, 25, 200):
        assert_same_form(cf.birth_death(beta, R, gamma),
                         cf.build_form(spec_birth_death(beta, R, gamma)))


def spec_random_tree(n, seed):
    """Reference: the random tree as a graph description, drawn one scalar at a time."""
    rng = np.random.default_rng(seed)
    ids = [str(k).zfill(len(str(n - 1))) for k in range(n)]
    edges = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges.append([ids[parent], ids[k], float(rng.uniform(0.5, 2.0))])
    return {
        "vertices": ids,
        "edges": edges,
        "mu": {v: float(rng.uniform(0.5, 2.0)) for v in ids},
        "potential": {v: float(rng.uniform(0.1, 1.0)) for v in ids},
        "name": f"random-tree-{n}-{seed}",
    }


def spec_random_graph(n, seed, signed, dirichlet_count):
    """Reference: the random connected graph as a graph description."""
    rng = np.random.default_rng(seed)
    ids = [str(k).zfill(len(str(n - 1))) for k in range(n)]
    seen, edges = set(), []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        seen.add((parent, k))
        edges.append([ids[parent], ids[k], float(rng.uniform(0.5, 2.0))])
    for _ in range(int(rng.binomial(n, 0.15))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append([ids[u], ids[v], float(rng.uniform(0.5, 2.0))])
    mu = {v: float(rng.uniform(0.5, 2.0)) for v in ids}
    if signed:
        h = {v: float(rng.uniform(0.5, 2.0)) for v in ids}
        raw = {v: 0.0 for v in ids}
        for u, v, b in edges:
            raw[u] += b * (h[u] - h[v])
            raw[v] += b * (h[v] - h[u])
        pot = {v: -raw[v] / (h[v] * mu[v]) + float(rng.uniform(0.0, 0.3)) for v in ids}
    else:
        pot = {v: float(rng.uniform(0.0, 0.5)) for v in ids}
    boundary = []
    if dirichlet_count > 0:
        boundary = [ids[int(i)] for i in rng.choice(n, size=min(dirichlet_count, n - 1),
                                                    replace=False)]
    return {"vertices": ids, "edges": edges, "mu": mu, "potential": pot,
            "dirichlet": boundary, "name": f"random-graph-{n}-{seed}"}


def test_random_generators_match_graph_descriptions():
    for n in [*range(2, 60), 100, 200, 1000]:
        for seed in range(6):
            assert_same_form(cf.random_tree_form(n, seed),
                             cf.build_form(spec_random_tree(n, seed)))
            for signed in (False, True):
                for count in (0, 2):
                    assert_same_form(
                        cf.random_connected_form(n, seed, signed_potential=signed,
                                                 dirichlet_count=count),
                        cf.build_form(spec_random_graph(n, seed, signed, count)))


# ---------------------------------------------------------------------------
# the one-pass tree draws against the per-edge loop
# ---------------------------------------------------------------------------

def loop_tree_draws(rng, n):
    """Reference: parent and weight of each tree edge, one scalar draw at a time."""
    parents, weights = [], []
    for k in range(1, n):
        parents.append(int(rng.integers(0, k)))
        weights.append(float(rng.uniform(0.5, 2.0)))
    return parents, weights


def draws_after(rng, n):
    return (rng.integers(0, 10**6, 3).tolist(), rng.choice(n, size=2, replace=False).tolist(),
            rng.uniform(0.5, 2.0, 3).tolist(), int(rng.binomial(n, 0.15)))


def assert_same_draws(make, n):
    """_tree_draws on make() gives the loop's edges and leaves the generator
    where the loop leaves it."""
    fast, slow = make(), make()
    parents, weights = families._tree_draws(fast, n)
    assert parents.dtype == np.int64 and weights.dtype == float
    assert (parents.tolist(), weights.tolist()) == loop_tree_draws(slow, n)
    assert draws_after(fast, n) == draws_after(slow, n)


@pytest.fixture
def scalar_runs(monkeypatch):
    families._replay_agrees()               # the one-time check draws by the loop too
    return count_calls(monkeypatch, families, "_scalar_tree_draws")


def test_tree_draws_replay_the_loop_and_the_draws_after_it(scalar_runs):
    for n in [*range(2, 81), 1001, 2000, 2401]:
        assert_same_draws(lambda: np.random.default_rng(n + 7), n)
    assert scalar_runs == []                # every case took the one pass


def pcg64_with_zero_word(at):
    """A PCG64 generator whose raw word number ``at`` (from 0) is 0: the
    state is stepped back from 0 by the inverse of the LCG multiplier."""
    mult, inc, state = 0x2360ED051FC65DA44385DF649FCCF645, 2 * 12345 + 1, 0
    for _ in range(at + 1):
        state = (state - inc) * pow(mult, -1, 2**128) % 2**128
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def buffered_pcg64():
    rng = np.random.default_rng(5)
    rng.integers(0, 7)                      # leaves the high half of a word in the buffer
    return rng


@pytest.mark.parametrize("make", [
    lambda: np.random.Generator(np.random.Philox(3)),
    buffered_pcg64,
    lambda: pcg64_with_zero_word(1),        # word 1 gives the parents of k = 2 and 3
], ids=["philox", "buffered-half", "rejection"])
def test_tree_draws_fall_back_to_the_loop(make, scalar_runs):
    for n in (4, 5, 60, 301):
        assert_same_draws(make, n)
    assert len(scalar_runs) == 4


def test_rejected_draw_is_the_crafted_word():
    rng = pcg64_with_zero_word(1)
    assert rng.bit_generator.random_raw(2)[1] == 0
    # k = 2 accepts the low half 0 ((2^32 - 2) mod 2 = 0); k = 3 rejects the high half
    assert families._replayed_tree_draws(pcg64_with_zero_word(1).bit_generator, 3) is not None
    assert families._replayed_tree_draws(pcg64_with_zero_word(1).bit_generator, 4) is None


def test_failed_self_check_keeps_the_loop_and_the_forms(scalar_runs, monkeypatch):
    monkeypatch.setattr(families, "_replay_agrees", lambda: False)
    for n, seed in ((2, 0), (37, 4), (200, 1)):
        assert_same_form(cf.random_tree_form(n, seed), cf.build_form(spec_random_tree(n, seed)))
        assert_same_form(cf.random_connected_form(n, seed, signed_potential=True,
                                                  dirichlet_count=1),
                         cf.build_form(spec_random_graph(n, seed, True, 1)))
    assert len(scalar_runs) == 6


def test_lemire_step_matches_its_definition():
    rng = np.random.default_rng(9)
    halves = rng.integers(0, 2**32, 500, dtype=np.uint64)
    k = rng.integers(1, 2**20, 500, dtype=np.uint64)
    values, accepted = families._lemire(halves, k)
    for h, kk, v, ok in zip(halves.tolist(), k.tolist(), values.tolist(), accepted.tolist()):
        assert v == (h * kk) >> 32 and v < kk
        assert ok == ((h * kk) % 2**32 >= (2**32 - kk) % kk)
    # a low half of 0 at k = 3 leaves 0 < (2^32 - 3) mod 3 = 1: rejected
    assert families._lemire([0], [3])[1].tolist() == [False]
    assert families._lemire([0, 2**32 - 1], [2, 3])[1].tolist() == [True, True]
