"""Quadratic forms on weighted graphs with measures, potentials and Dirichlet boundaries.

The central object is :class:`GraphForm`: an undirected graph with positive edge
weights ``b``, a positive vertex measure ``mu``, a real potential ``c`` and an
optional Dirichlet vertex set on which every admissible function vanishes.  The
associated energy is

    q(f) = sum_edges b(u,v) * (f(u) - f(v))**2 + sum_v c(v) * f(v)**2 * mu(v)

and the generator L satisfies q(f, g) = <L f, g>_mu on the non-Dirichlet part.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .config import tolerances
from .errors import (
    DisconnectedDirichletSpec,
    DomainMismatch,
    FormNotNonnegative,
    NonPositiveMeasure,
    NonSymmetricWeights,
    ParseError,
    SolverFailure,
)

__all__ = [
    "GraphForm",
    "VertexFunction",
    "InvarianceReport",
    "build_form",
    "evaluate",
    "evaluate_bilinear",
    "evaluate_rows",
    "sample_blocks",
    "operator_apply",
    "check_first_bd",
    "check_lattice_inequality",
    "is_invariant_set",
    "irreducible_components",
    "as_function",
    "as_domain_function",
]

_ALLOWED_SPEC_KEYS = {"vertices", "edges", "mu", "potential", "dirichlet", "name", "comment"}
SAMPLE_BLOCK_ENTRIES = 1 << 16  # entries per block of sampled test functions (512 KiB)


@dataclass(frozen=True)
class GraphForm:
    """Immutable graph form.  Vertex order is fixed at build time.

    Attributes
    ----------
    vertices : tuple of vertex ids (strings), in canonical (lexicographic) order
    edge_index : (m, 2) int array, each row (i, j) with i < j, one row per edge
    weights : (m,) positive edge weights
    measure : (n,) positive vertex measure
    potential : (n,) real potential
    dirichlet : frozenset of vertex ids forced to zero
    """

    vertices: tuple[str, ...]
    edge_index: np.ndarray
    weights: np.ndarray
    measure: np.ndarray
    potential: np.ndarray
    dirichlet: frozenset
    name: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.edge_index, self.weights, self.measure, self.potential):
            arr.setflags(write=False)
        # reentrant: cached builders may themselves read other cached fields
        self._cache["lock"] = threading.RLock()

    @classmethod
    def from_arrays(cls, vertices: Sequence[str], edge_index, weights, measure=None,
                    potential=None, dirichlet: Iterable[str] = (), name: str = "") -> "GraphForm":
        """Build a validated form from arrays indexed by position in ``vertices``.

        ``edge_index`` is an (m, 2) array of vertex positions with weights
        ``weights``; ``measure`` (default 1) and ``potential`` (default 0)
        hold one value per vertex; ``dirichlet`` lists vertex ids.  Vertices
        are reordered lexicographically and edges remapped to rows (i, j),
        i < j, in sorted order; repeated edges must carry equal weights and
        zero weights are dropped.
        """
        ids = list(map(str, vertices))
        n = len(ids)
        order = sorted(range(n), key=ids.__getitem__)
        canon = tuple(map(ids.__getitem__, order))
        index = dict(zip(canon, range(n)))
        if len(index) != n:
            raise ParseError("duplicate vertex ids")
        if n == 0:
            raise ParseError("empty vertex list")
        order = np.array(order, dtype=np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        pairs = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != pairs.shape[0]:
            raise ParseError(f"{pairs.shape[0]} edges but {w.size} weights")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ParseError("edge references unknown vertex")
        i, j = rank[pairs[:, 0]], rank[pairs[:, 1]]
        loops = np.flatnonzero(i == j)
        if loops.size:
            raise NonSymmetricWeights(
                f"self-loop at {canon[i[loops[0]]]!r} (weights must vanish on the diagonal)")
        if not np.all(np.isfinite(w)):
            raise ParseError("edge weights must be finite")
        neg = np.flatnonzero(w < 0)
        if neg.size:
            k = neg[0]
            raise NonSymmetricWeights(
                f"negative weight {w[k]} on edge ({canon[i[k]]!r}, {canon[j[k]]!r})")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        perm = np.lexsort((hi, lo))
        lo, hi, w = lo[perm], hi[perm], w[perm]
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lead = np.maximum.accumulate(np.where(first, np.arange(lo.size), 0))
        clash = np.flatnonzero(w != w[lead])
        if clash.size:
            k = clash[0]
            raise NonSymmetricWeights(
                f"conflicting weights for edge ({canon[lo[k]]!r}, {canon[hi[k]]!r}): "
                f"{w[lead[k]]} vs {w[k]}")
        keep = first & (w > 0)

        mu = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
        pot = np.zeros(n) if potential is None else np.asarray(potential, dtype=float)
        if mu.shape != (n,) or pot.shape != (n,):
            raise ParseError(f"measure and potential need one value per vertex ({n})")
        mu, pot = mu[order], pot[order]
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise NonPositiveMeasure("mu must be strictly positive and finite")
        if not np.all(np.isfinite(pot)):
            raise ParseError("potential must be finite")

        boundary = frozenset(str(v) for v in dirichlet)
        bad = boundary - index.keys()
        if bad:
            raise DisconnectedDirichletSpec(
                f"dirichlet set references unknown vertices: {sorted(bad)[:5]}"
            )

        form = cls(
            vertices=canon,
            edge_index=np.column_stack([lo[keep], hi[keep]]),
            weights=w[keep],
            measure=mu,
            potential=pot,
            dirichlet=boundary,
            name=str(name),
        )
        form._cache["index_table"] = index
        _validate_nonnegative(form)
        return form

    # -- basic geometry ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return self.edge_index.shape[0]

    def index(self, vertex: str) -> int:
        table = self._cached("index_table", lambda: {v: i for i, v in enumerate(self.vertices)})
        try:
            return table[vertex]
        except KeyError:
            raise DomainMismatch(f"unknown vertex id {vertex!r}") from None

    @property
    def boundary_mask(self) -> np.ndarray:
        def make():
            mask = np.zeros(self.n, dtype=bool)
            for v in self.dirichlet:
                mask[self.index(v)] = True
            mask.setflags(write=False)
            return mask
        return self._cached("boundary_mask", make)

    @property
    def active(self) -> np.ndarray:
        def make():
            idx = np.flatnonzero(~self.boundary_mask)
            idx.setflags(write=False)
            return idx
        return self._cached("active", make)

    @property
    def n_active(self) -> int:
        return int(self.active.size)

    # -- assembled matrices -------------------------------------------------

    @property
    def form_matrix(self) -> sp.csr_matrix:
        """Sparse n x n matrix Q with q(f) = f @ Q @ f for boundary-vanishing f."""
        def make():
            i = self.edge_index[:, 0]
            j = self.edge_index[:, 1]
            b = self.weights
            deg = np.zeros(self.n)
            np.add.at(deg, i, b)
            np.add.at(deg, j, b)
            diag = deg + self.potential * self.measure
            rows = np.concatenate([i, j, np.arange(self.n)])
            cols = np.concatenate([j, i, np.arange(self.n)])
            vals = np.concatenate([-b, -b, diag])
            return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        return self._cached("form_matrix", make)

    @property
    def active_form_matrix(self) -> sp.csr_matrix:
        def make():
            act = self.active
            return self.form_matrix[act][:, act].tocsr()
        return self._cached("active_form_matrix", make)

    @property
    def active_measure(self) -> np.ndarray:
        def make():
            m = self.measure[self.active]
            m.setflags(write=False)
            return m
        return self._cached("active_measure", make)

    def operator_norm_bound(self) -> float:
        """Row-sum bound on the mu-weighted operator norm of L."""
        def make():
            i = self.edge_index[:, 0]
            j = self.edge_index[:, 1]
            deg = np.zeros(self.n)
            np.add.at(deg, i, self.weights)
            np.add.at(deg, j, self.weights)
            vals = (2.0 * deg + np.abs(self.potential) * self.measure) / self.measure
            act = self.active
            return float(vals[act].max()) if act.size else 0.0
        return self._cached("norm_bound", make)

    def _cached(self, key, make):
        cache = self._cache
        if key not in cache:
            with cache["lock"]:
                if key not in cache:
                    cache[key] = make()
        return cache[key]


@dataclass(frozen=True)
class VertexFunction:
    """Values attached to the vertex tuple of a specific form."""

    vertices: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.vertices),):
            raise DomainMismatch(
                f"function has {vals.shape} values for {len(self.vertices)} vertices"
            )
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @classmethod
    def from_mapping(cls, form: GraphForm, mapping: Mapping[str, float]) -> "VertexFunction":
        unknown = set(mapping) - set(form.vertices)
        if unknown:
            raise DomainMismatch(f"values reference unknown vertices: {sorted(unknown)[:5]}")
        vals = np.array([float(mapping.get(v, 0.0)) for v in form.vertices])
        return cls(form.vertices, vals)

    def as_mapping(self) -> dict[str, float]:
        return {v: float(x) for v, x in zip(self.vertices, self.values)}


# ---------------------------------------------------------------------------
# function coercion
# ---------------------------------------------------------------------------

def as_function(form: GraphForm, f) -> np.ndarray:
    """Coerce ``f`` (array, sequence, mapping or VertexFunction) to a full vector."""
    if isinstance(f, VertexFunction):
        if f.vertices != form.vertices:
            raise DomainMismatch("function belongs to a different vertex set")
        return np.asarray(f.values, dtype=float)
    if isinstance(f, Mapping):
        return VertexFunction.from_mapping(form, f).values
    arr = np.asarray(f, dtype=float)
    if arr.shape != (form.n,):
        raise DomainMismatch(f"expected {form.n} values, got shape {arr.shape}")
    return arr


def as_domain_function(form: GraphForm, f) -> np.ndarray:
    """Like :func:`as_function` but requires f to vanish on the Dirichlet set."""
    arr = as_function(form, f)
    if form.dirichlet and np.any(arr[form.boundary_mask] != 0.0):
        raise DomainMismatch("form argument must vanish on the Dirichlet boundary")
    return arr


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_form(spec: Mapping) -> GraphForm:
    """Build a validated :class:`GraphForm` from a parsed graph description.

    Expected keys: ``vertices`` (list of ids), ``edges`` (list of [u, v, b]),
    and optional ``mu`` (default 1), ``potential`` (default 0), ``dirichlet``
    (default empty).  Vertices are reordered lexicographically; the checks are
    those of :meth:`GraphForm.from_arrays`.
    """
    unknown = set(spec) - _ALLOWED_SPEC_KEYS
    if unknown:
        raise ParseError(f"unknown graph-description keys: {sorted(unknown)}")
    if "vertices" not in spec:
        raise ParseError("graph description lacks 'vertices'")

    vertices = [str(v) for v in spec["vertices"]]
    position = {v: k for k, v in enumerate(vertices)}
    pairs, weights = [], []
    for entry in spec.get("edges", []):
        if len(entry) != 3:
            raise ParseError(f"edge entry must be [u, v, b], got {entry!r}")
        u, v = str(entry[0]), str(entry[1])
        if u not in position or v not in position:
            raise ParseError(f"edge ({u!r}, {v!r}) references unknown vertex")
        pairs.append((position[u], position[v]))
        weights.append(float(entry[2]))

    mu_map = spec.get("mu", {}) or {}
    pot_map = spec.get("potential", {}) or {}
    for name, mapping in (("mu", mu_map), ("potential", pot_map)):
        bad = set(map(str, mapping)) - position.keys()
        if bad:
            raise ParseError(f"{name} references unknown vertices: {sorted(bad)[:5]}")

    return GraphForm.from_arrays(
        vertices,
        pairs,
        weights,
        measure=[float(mu_map.get(v, 1.0)) for v in vertices],
        potential=[float(pot_map.get(v, 0.0)) for v in vertices],
        dirichlet=spec.get("dirichlet", []),
        name=spec.get("name", ""),
    )


def _validate_nonnegative(form: GraphForm) -> None:
    """Reject forms whose restricted energy takes negative values.

    With c >= 0 the energy is a sum of squares, so the check is skipped.  A
    signed potential needs a proof by Sylvester's law of inertia that the
    pencil (Q, M) has no eigenvalue below -tol = -tol_psd * max(norm, 1):
    ``resolvent._inertia`` finds no nonpositive pivot of Q + (tol/2) M and a
    rounding bound s <= tol/2, so Q + (tol/2) M >= -s M.  A nonpositive pivot
    raises ``FormNotNonnegative``; a pivot off the diagonal, a breakdown or a
    larger s raises ``SolverFailure``.
    """
    if np.all(form.potential[form.active] >= 0):     # also when no vertex is free
        return
    from .resolvent import _inertia

    tol = tolerances()["tol_psd"] * max(form.operator_norm_bound(), 1.0)
    _, count, s = _inertia(form.active_form_matrix, form.active_measure, 0.5 * tol)
    if count:
        raise FormNotNonnegative(count, tol)
    if not s <= 0.5 * tol:
        raise SolverFailure(f"cannot certify nonnegativity of the signed form: "
                            f"rounding bound {s:.3e} exceeds {0.5 * tol:.3e}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(form: GraphForm, f) -> float:
    """Energy q(f) of a boundary-vanishing function."""
    vec = as_domain_function(form, f)
    return float(vec @ (form.form_matrix @ vec))


def evaluate_bilinear(form: GraphForm, f, g) -> float:
    """Bilinear energy q(f, g)."""
    fv = as_domain_function(form, f)
    gv = as_domain_function(form, g)
    return float(fv @ (form.form_matrix @ gv))


def evaluate_rows(form: GraphForm, X) -> np.ndarray:
    """Energies q(f) of a block of functions, one per row of ``X``; a row holds
    a function's values on the non-Dirichlet vertices (``form.active``)."""
    X = np.asarray(X, dtype=float)
    return np.einsum("ij,ji->i", X, form.active_form_matrix @ X.T)


def sample_blocks(rng: np.random.Generator, n_samples: int,
                  width: int) -> Iterator[np.ndarray]:
    """Yield ``n_samples`` standard-normal rows of length ``width`` in (k, width)
    blocks of at most ``SAMPLE_BLOCK_ENTRIES`` entries (at least one row each).

    The rows are exactly the draws of ``n_samples`` successive
    ``rng.standard_normal(width)`` calls, so a seed draws the same functions
    however the rows are blocked.
    """
    rows = max(SAMPLE_BLOCK_ENTRIES // max(width, 1), 1)
    for start in range(0, n_samples, rows):
        yield rng.standard_normal((min(rows, n_samples - start), width))


def _unit_rows(form: GraphForm, X) -> np.ndarray:
    """Rows of ``X`` scaled to unit mu-norm; rows of norm zero are dropped."""
    norms = np.sqrt(np.sum(X * X * form.active_measure, axis=1))
    keep = norms != 0.0
    return X[keep] / norms[keep, None]


def operator_apply(form: GraphForm, f) -> np.ndarray:
    """Apply the generator L (zero on the Dirichlet set)."""
    vec = as_domain_function(form, f)
    out = np.zeros(form.n)
    act = form.active
    out[act] = (form.form_matrix[act] @ vec) / form.measure[act]
    return out


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_first_bd(form: GraphForm, n_samples: int = 100, seed: int = 0) -> float:
    """Max violation of q(|f|) <= q(f) over unit-measure-normalized samples."""
    worst = -np.inf
    for X in sample_blocks(np.random.default_rng(seed), n_samples, form.n_active):
        X = _unit_rows(form, X)
        gaps = evaluate_rows(form, np.abs(X)) - evaluate_rows(form, X)
        worst = max(worst, float(np.max(gaps, initial=-np.inf)))
    return float(worst)


def check_lattice_inequality(form: GraphForm, f, g) -> float:
    """Gap q(f) + q(g) - q(f min g) - q(f max g), nonnegative up to tolerance."""
    fv = as_domain_function(form, f)
    gv = as_domain_function(form, g)
    lo = np.minimum(fv, gv)
    hi = np.maximum(fv, gv)
    return evaluate(form, fv) + evaluate(form, gv) - evaluate(form, lo) - evaluate(form, hi)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the invariant-set test for a vertex subset."""

    subset: tuple[str, ...]
    invariant: bool
    crossing_edges: tuple[tuple[str, str], ...]
    witness: np.ndarray | None
    witness_gap: float
    corroboration_gap: float


def is_invariant_set(form: GraphForm, subset: Iterable[str],
                     n_samples: int = 50, seed: int = 0) -> InvarianceReport:
    """Decide whether multiplying by the subset indicator never raises the energy.

    The decision is exact: the subset is invariant iff no positive-weight edge
    crosses between the subset and its complement (within the non-Dirichlet
    part).  When a crossing edge exists an explicit witness f with
    q(1_A f) > q(f) is constructed; random samples corroborate the verdict.
    """
    ids = {str(v) for v in subset}
    unknown = ids - set(form.vertices)
    if unknown:
        raise DomainMismatch(f"subset references unknown vertices: {sorted(unknown)[:5]}")
    in_a = np.zeros(form.n, dtype=bool)
    for v in ids:
        in_a[form.index(v)] = True
    in_a &= ~form.boundary_mask

    i = form.edge_index[:, 0]
    j = form.edge_index[:, 1]
    act_edge = ~form.boundary_mask[i] & ~form.boundary_mask[j]
    crossing = act_edge & (in_a[i] ^ in_a[j])
    cross_rows = np.flatnonzero(crossing)
    invariant = cross_rows.size == 0

    witness = None
    witness_gap = 0.0
    if not invariant:
        # Pick the crossing edge with the largest weight; perturb the outside
        # endpoint of the plain indicator by the optimal step.
        row = cross_rows[np.argmax(form.weights[cross_rows])]
        u, v = form.edge_index[row]
        outside = v if in_a[u] else u
        f = in_a.astype(float)
        delta = np.zeros(form.n)
        delta[outside] = 1.0
        s = -evaluate_bilinear(form, f, delta)
        qd = evaluate(form, delta)
        step = s / qd if qd > 0 else 1.0
        witness = f + step * delta
        witness_gap = evaluate(form, in_a.astype(float) * witness) - evaluate(form, witness)

    corroboration = -np.inf
    for X in sample_blocks(np.random.default_rng(seed), n_samples, form.n_active):
        X = _unit_rows(form, X)
        gaps = evaluate_rows(form, X * in_a[form.active]) - evaluate_rows(form, X)
        corroboration = max(corroboration, float(np.max(gaps, initial=-np.inf)))

    return InvarianceReport(
        subset=tuple(sorted(ids)),
        invariant=invariant,
        crossing_edges=tuple(
            (form.vertices[form.edge_index[r, 0]], form.vertices[form.edge_index[r, 1]])
            for r in cross_rows[:16]
        ),
        witness=witness,
        witness_gap=float(witness_gap),
        corroboration_gap=float(corroboration),
    )


def irreducible_components(form: GraphForm) -> list[tuple[str, ...]]:
    """Connected components of the positive-weight edge graph."""
    i = form.edge_index[:, 0]
    j = form.edge_index[:, 1]
    adj = sp.csr_matrix(
        (np.ones(2 * len(i)), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(form.n, form.n),
    )
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    comps: list[list[str]] = [[] for _ in range(n_comp)]
    for idx, lab in enumerate(labels):
        comps[lab].append(form.vertices[idx])
    return [tuple(c) for c in sorted(comps, key=lambda c: c[0])]


def is_irreducible(form: GraphForm) -> bool:
    return len(irreducible_components(form)) == 1
