"""Built-in graph families and exhaustions: integer lattices with Dirichlet
shells, Dirichlet paths, designed birth–death chains, plus seeded random
instance generators used by the property suites.

The random generators draw their tree in one vectorized pass that replays
the per-edge draws word for word (:func:`_tree_draws`), so a seed names the
same form as the per-edge loop; that loop still runs for other bit
generators, a buffered 32-bit half, a rejected bounded draw, or a NumPy
build on which the replay fails its one-time check.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .criticality import Exhaustion
from .errors import BadConfig, UnknownFamily
from .forms import GraphForm

__all__ = [
    "lattice",
    "lattice_exhaustion",
    "dirichlet_path",
    "dirichlet_path_exhaustion",
    "path_form",
    "birth_death",
    "birth_death_exhaustion",
    "constant_exhaustion",
    "builtin_family",
    "random_connected_form",
    "random_tree_form",
    "random_kernel_data",
    "DEFAULT_LATTICE_RADII",
]

DEFAULT_LATTICE_RADII = {
    1: (25, 50, 100, 150, 200),
    2: (8, 16, 24, 32, 48, 64),
    3: (4, 6, 8, 10, 12),
}


class _LatticeIds:
    """The ids "x,y,z" of ``lattice(d, R)``, formatted only when read.

    Position k holds the k-th point of the C-order product of ``axis`` (the
    coordinates in the order of their decimal strings) with itself, d times.
    ``position`` inverts that by arithmetic through ``slot`` (coordinate c
    sits at axis position ``slot[c + R]``) and accepts exactly the ids the
    materialized tuple holds: d comma-separated integers in their canonical
    spelling, each in -R..R."""

    def __init__(self, d: int, R: int, axis: np.ndarray, slot: np.ndarray):
        self.d, self.R, self.axis, self.slot = d, R, axis.tolist(), slot.tolist()

    def __getitem__(self, k: int) -> str:
        point = np.unravel_index(k, (len(self.axis),) * self.d)
        return ",".join(str(self.axis[c]) for c in point)

    def as_tuple(self) -> tuple:
        names = [str(c) for c in self.axis]
        return tuple(map(",".join, itertools.product(names, repeat=self.d)))

    def position(self, vertex) -> int:
        parts = vertex.split(",") if isinstance(vertex, str) else ()
        if len(parts) != self.d:
            raise KeyError(vertex)
        k = 0
        for part in parts:
            try:
                c = int(part)
            except ValueError:
                raise KeyError(vertex) from None
            if str(c) != part or abs(c) > self.R:
                raise KeyError(vertex)
            k = k * len(self.axis) + self.slot[c + self.R]
        return k


def lattice(d: int, R: int) -> GraphForm:
    """Box {-R..R}^d with unit edge weights, mu = 1, c = 0, and a Dirichlet
    boundary on the sup-norm shell |x|_inf = R.  The ids "x,y,z" are built
    only when ``vertices`` or ``dirichlet`` is read."""
    if d not in (1, 2, 3):
        raise BadConfig(f"lattice dimension must be 1, 2, or 3, got {d}")
    if R < 1:
        raise BadConfig(f"lattice radius must be >= 1, got {R}")
    # Along each axis, coordinates in the order of their decimal strings.  The
    # separator "," sorts below "-" and every digit, so the C-order product of
    # these axes is already the lexicographic order of the vertex ids.
    axis = np.array(sorted(range(-R, R + 1), key=str))
    m = axis.size
    grid = np.arange(m ** d).reshape((m,) * d)
    slot = np.empty(m, dtype=np.int64)          # position of coordinate c at slot[c + R]
    slot[axis + R] = np.arange(m)
    lower, upper = slot[:-1], slot[1:]          # the coordinates c and c + 1, c < R
    edges = np.concatenate([
        np.column_stack([np.take(grid, lower, axis=ax).ravel(),
                         np.take(grid, upper, axis=ax).ravel()])
        for ax in range(d)
    ])
    on_shell = np.zeros((m,) * d, dtype=bool)
    for ax in range(d):
        on_shell |= (np.abs(axis) == R).reshape([-1 if k == ax else 1 for k in range(d)])
    return GraphForm._from_canonical(
        _LatticeIds(d, R, axis, slot), edges, np.ones(len(edges)), np.ones(m ** d),
        np.zeros(m ** d), on_shell.ravel(), name=f"lattice-d{d}-R{R}",
    )


def lattice_exhaustion(d: int, radii=None) -> Exhaustion:
    radii = tuple(radii) if radii is not None else DEFAULT_LATTICE_RADII[d]
    root = ",".join(["0"] * d)
    return Exhaustion(generator=lambda R: lattice(d, R), radii=radii, root=root)


def _chain(R: int, weights, potential=None, dirichlet=(), name: str = "") -> GraphForm:
    """Path 0..R with edge weights b(n, n+1) = weights[n] and mu = 1."""
    vertices = [str(n) for n in range(R + 1)]
    edges = np.column_stack([np.arange(R), np.arange(1, R + 1)])
    return GraphForm.from_arrays(vertices, edges, weights, potential=potential,
                                 dirichlet=dirichlet, name=name)


def dirichlet_path(R: int) -> GraphForm:
    """Path 0..R with unit weights and Dirichlet boundary at both endpoints."""
    if R < 2:
        raise BadConfig(f"Dirichlet path level needs R >= 2, got {R}")
    return _chain(R, np.ones(R), dirichlet=["0", str(R)], name=f"dirichlet-path-R{R}")


def dirichlet_path_exhaustion(radii=(25, 50, 100, 150, 200)) -> Exhaustion:
    return Exhaustion(generator=dirichlet_path, radii=tuple(radii), root="1")


def path_form(N: int) -> GraphForm:
    """Half-line testbed: path 0..N, unit weights, mu = 1, Dirichlet at 0
    only.  Its Green function is min(n, m)."""
    if N < 1:
        raise BadConfig(f"path length must be >= 1, got {N}")
    return _chain(N, np.ones(N), dirichlet=["0"], name=f"path-N{N}")


def birth_death(beta: float, R: int, gamma: float | None = None) -> GraphForm:
    """Birth–death chain on 0..R with b(n, n+1) = (n+1)^beta, mu = 1, and a
    Dirichlet cap at R.  With gamma set, the potential is designed so that
    h(n) = (n+1)^(-gamma) is annihilated by the generator — for beta = 2,
    gamma = 1 the chain is critical with ground state h."""
    if R < 2:
        raise BadConfig(f"birth-death level needs R >= 2, got {R}")
    # Powers are taken in Python floats: NumPy's vectorized power may differ
    # from the C library's in the last bit.
    b = np.array([float(k) ** beta for k in range(1, R + 1)])        # b[n] = b(n, n+1)
    potential = None
    if gamma is not None:
        # c(n) = -(L0 h)(n) / h(n) for n < R, where L0 is the edge part.
        h = np.array([float(k) ** (-gamma) for k in range(1, R + 2)])  # h[n] = (n+1)^-gamma
        flow = b * (h[:R] - h[1:])
        flow[1:] += b[:-1] * (h[1:R] - h[:R - 1])
        potential = np.zeros(R + 1)
        potential[:R] = -flow / h[:R]
    return _chain(R, b, potential=potential, dirichlet=[str(R)],
                  name=f"birth-death-b{beta}-R{R}")


def birth_death_exhaustion(beta: float, gamma: float | None = None,
                           radii=(25, 50, 100, 200, 400)) -> Exhaustion:
    return Exhaustion(
        generator=lambda R: birth_death(beta, R, gamma),
        radii=tuple(radii),
        root="0",
    )


def constant_exhaustion(form: GraphForm) -> Exhaustion:
    """Wrap a single finite form as a trivially constant exhaustion (four
    identical levels), rooted at its first non-Dirichlet vertex."""
    act = form.active
    if act.size == 0:
        raise BadConfig("form has no non-Dirichlet vertices")
    root = form.vertices[act[0]]
    return Exhaustion(
        generator=lambda R: form,
        radii=(1, 2, 3, 4),
        root=root,
    )


def builtin_family(name: str, params: dict | None = None) -> Exhaustion:
    """Named deterministic exhaustions for the CLI: lattice (d, radii),
    birth_death (beta, gamma, radii), dirichlet_path (radii)."""
    params = dict(params or {})

    def pop_radii():
        """The given radii as a keyword, or none for the family's default."""
        radii = params.pop("radii", None)
        if radii is None:
            return {}
        try:
            return {"radii": tuple(int(r) for r in radii)}
        except (TypeError, ValueError) as exc:
            raise BadConfig(f"radii must be a list of integers: {exc}") from None

    if name == "lattice":
        try:
            d = int(params.pop("d"))
        except KeyError:
            raise BadConfig("lattice family needs parameter d") from None
        radii = pop_radii()
        _reject_extras(name, params)
        if d not in DEFAULT_LATTICE_RADII:
            raise BadConfig(f"lattice dimension must be 1, 2, or 3, got {d}")
        return lattice_exhaustion(d, **radii)
    if name == "birth_death":
        try:
            beta = float(params.pop("beta"))
        except KeyError:
            raise BadConfig("birth_death family needs parameter beta") from None
        gamma = params.pop("gamma", None)
        gamma = None if gamma is None else float(gamma)
        radii = pop_radii()
        _reject_extras(name, params)
        return birth_death_exhaustion(beta, gamma, **radii)
    if name == "dirichlet_path":
        radii = pop_radii()
        _reject_extras(name, params)
        return dirichlet_path_exhaustion(**radii)
    raise UnknownFamily(
        f"unknown family {name!r}; available: lattice, birth_death, dirichlet_path"
    )


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise BadConfig(f"unknown parameters for family {name!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# seeded random instances for the property suites
# ---------------------------------------------------------------------------

def _scalar_tree_draws(rng: np.random.Generator, n: int):
    """The per-edge draws of a random tree on n vertices: for k = 1..n-1,
    the parent of vertex k is ``rng.integers(0, k)`` and the weight of its
    edge ``rng.uniform(0.5, 2.0)``, in that order."""
    parents = np.empty(n - 1, dtype=np.int64)
    weights = np.empty(n - 1)
    for k in range(1, n):
        parents[k - 1] = rng.integers(0, k)
        weights[k - 1] = rng.uniform(0.5, 2.0)
    return parents, weights


def _lemire(halves: np.ndarray, k: np.ndarray):
    """NumPy's bounded draw ``integers(0, k)`` from one 32-bit word each
    (Lemire 2019, "Fast random integer generation in an interval"): the
    values (half * k) >> 32, and whether each word is accepted, that is,
    lies outside the rejection zone (half * k mod 2^32) < (2^32 - k) mod k."""
    halves, k = np.asarray(halves, dtype=np.uint64), np.asarray(k, dtype=np.uint64)
    prod = halves * k
    accepted = (prod & np.uint64(2**32 - 1)) >= (np.uint64(2**32) - k) % k
    return (prod >> np.uint64(32)).astype(np.int64), accepted


def _replayed_tree_draws(bit_generator: np.random.PCG64, n: int):
    """The draws of :func:`_scalar_tree_draws` from one ``random_raw`` call,
    or None when an integer draw lands in Lemire's rejection zone.

    With m = n - 2 the loop takes 1 + m + ceil(m/2) words of the 64-bit
    stream.  Word 0 is the first weight (``integers(0, 1)`` draws nothing).
    Each pair k, k + 1 then takes one word whose low and then high 32-bit
    half give the two parents (NumPy buffers the high half), and each
    parent is followed by one word for its weight, 0.5 + 1.5 * (w >> 11) * 2^-53.
    When m is odd the last high half is left in the generator's 32-bit
    buffer, as the loop leaves it.  Expects that buffer empty."""
    m = n - 2
    raw = bit_generator.random_raw(1 + m + (m + 1) // 2)
    halves = raw[1::3].astype("<u8").view("<u4")     # low, high, low, high, ...
    parents, accepted = _lemire(halves[:m], np.arange(2, n, dtype=np.uint64))
    if not accepted.all():
        return None
    is_weight = np.ones(raw.size, dtype=bool)
    is_weight[1::3] = False
    weights = 0.5 + 1.5 * ((raw[is_weight] >> np.uint64(11)) * 2.0 ** -53)
    if m % 2:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, int(halves[m])
        bit_generator.state = state
    return np.concatenate([[0], parents]), weights


@functools.cache
def _replay_agrees() -> bool:
    """Whether the replay matches the loop on this NumPy build, over a few
    hundred edges and the draws after them (the replay's weights round
    twice where a build that contracts NumPy's low + range * u does not)."""
    runs = []
    for replay in (True, False):
        rng = np.random.default_rng(20211)
        draws = (_replayed_tree_draws(rng.bit_generator, 301) if replay
                 else _scalar_tree_draws(rng, 301))
        if draws is None:
            return False
        runs.append([*draws, rng.integers(0, 1000, 3), rng.uniform(size=3)])
    return all(np.array_equal(a, b) for a, b in zip(*runs))


def _tree_draws(rng: np.random.Generator, n: int):
    """``_scalar_tree_draws(rng, n)``: (parents, weights) of the n - 1 tree
    edges, leaving ``rng`` where the loop leaves it.

    A PCG64 generator with an empty 32-bit buffer replays the loop in one
    vectorized pass (:func:`_replayed_tree_draws`), so a seed names the same
    tree as before.  The loop itself runs, from the same state, for any
    other bit generator or buffer, when a draw lands in Lemire's rejection
    zone, or when the one-time check :func:`_replay_agrees` fails."""
    bit_generator = rng.bit_generator
    if type(bit_generator) is np.random.PCG64 and _replay_agrees():
        state = bit_generator.state
        if not state["has_uint32"]:
            draws = _replayed_tree_draws(bit_generator, n)
            if draws is not None:
                return draws
            bit_generator.state = state
    return _scalar_tree_draws(rng, n)


def random_tree_form(n: int, seed: int, potential_low: float = 0.1,
                     potential_high: float = 1.0) -> GraphForm:
    """Random tree with uniform(0.5, 2) weights and measures and strictly
    positive potentials — always subcritical.  The tree is drawn by
    :func:`_tree_draws`, in one pass that replays the per-edge draws."""
    if n < 2:
        raise BadConfig("tree needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    width = len(str(n - 1))
    ids = [str(k).zfill(width) for k in range(n)]
    parents, weights = _tree_draws(rng, n)
    edges = np.column_stack([parents, np.arange(1, n)])
    mu = rng.uniform(0.5, 2.0, n)
    potential = rng.uniform(potential_low, potential_high, n)
    return GraphForm.from_arrays(ids, edges, weights, measure=mu, potential=potential,
                                 name=f"random-tree-{n}-{seed}")


def random_connected_form(n: int, seed: int, extra_edge_prob: float = 0.15,
                          signed_potential: bool = False,
                          dirichlet_count: int = 0) -> GraphForm:
    """Random connected graph: a random tree plus extra edges, uniform
    weights/measures, and optional small signed or nonnegative potentials.
    The tree is drawn as in :func:`random_tree_form`; the extra edges one
    at a time."""
    if n < 2:
        raise BadConfig("graph needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    width = len(str(n - 1))
    ids = [str(k).zfill(width) for k in range(n)]
    parents, tree_weights = _tree_draws(rng, n)
    edges = list(zip(parents.tolist(), range(1, n)))
    weights = tree_weights.tolist()
    seen = set(edges)
    n_extra = rng.binomial(n, extra_edge_prob)
    for _ in range(int(n_extra)):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
        weights.append(rng.uniform(0.5, 2.0))
    edges, weights = np.array(edges, dtype=np.int64), np.array(weights)
    mu = rng.uniform(0.5, 2.0, n)
    if signed_potential:
        # genuinely signed but provably nonnegative: pick h > 0, choose c so
        # that h is annihilated by the edge part, then add a nonnegative bump
        h = rng.uniform(0.5, 2.0, n)
        flow = weights * (h[edges[:, 0]] - h[edges[:, 1]])
        raw = np.zeros(n)
        np.add.at(raw, edges.ravel(), np.column_stack([flow, -flow]).ravel())
        potential = -raw / (h * mu) + rng.uniform(0.0, 0.3, n)
    else:
        potential = rng.uniform(0.0, 0.5, n)
    boundary = []
    if dirichlet_count > 0:
        boundary = [ids[int(i)] for i in rng.choice(n, size=min(dirichlet_count, n - 1),
                                                    replace=False)]
    return GraphForm.from_arrays(ids, edges, weights, measure=mu, potential=potential,
                                 dirichlet=boundary, name=f"random-graph-{n}-{seed}")


def random_kernel_data(n_target: int, n_source: int, seed: int):
    """Strictly positive kernel matrix plus source/target measures."""
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(0.1, 2.0, size=(n_target, n_source))
    mu = rng.uniform(0.5, 2.0, size=n_source)
    nu = rng.uniform(0.5, 2.0, size=n_target)
    return kernel, mu, nu
