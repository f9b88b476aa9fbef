"""Quadratic forms on weighted graphs with measures, potentials and Dirichlet boundaries.

The central object is :class:`GraphForm`: an undirected graph with positive edge
weights ``b``, a positive vertex measure ``mu``, a real potential ``c`` and an
optional Dirichlet vertex set on which every admissible function vanishes.  The
associated energy is

    q(f) = sum_edges b(u,v) * (f(u) - f(v))**2 + sum_v c(v) * f(v)**2 * mu(v)

and the generator L satisfies q(f, g) = <L f, g>_mu on the non-Dirichlet part.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
# imported before scipy.sparse, scipy.linalg adds ~15 ms to `import critform`
import scipy.linalg

from .config import tolerance
from .errors import (
    DisconnectedDirichletSpec,
    DomainMismatch,
    FormNotNonnegative,
    NonPositiveMeasure,
    NonSymmetricWeights,
    ParseError,
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


class _SortedIds:
    """Vertex ids in canonical order with the id -> position dict that
    :meth:`GraphForm.from_arrays` builds while sorting them."""

    __slots__ = ("ids", "position")

    def __init__(self, ids: tuple, table: dict):
        self.ids, self.position = ids, table.__getitem__

    def __getitem__(self, k: int) -> str:
        return self.ids[k]

    def as_tuple(self) -> tuple:
        return self.ids


@dataclass(frozen=True, eq=False)
class GraphForm:
    """Immutable graph form.  Vertex order is fixed at build time.

    Attributes
    ----------
    edge_index : (m, 2) int array, each row (i, j) with i < j, one row per edge
    weights : (m,) positive edge weights
    measure : (n,) positive vertex measure
    potential : (n,) real potential
    boundary_mask : (n,) bool array, True on the vertices forced to zero

    The ids are held by a private id object (``ids[k]``, ``position(v)`` raising
    ``KeyError``, ``as_tuple()``); ``vertices`` (the ids, strings in canonical
    (lexicographic) order) and ``dirichlet`` (frozenset of the ids forced to
    zero) are built from it on first access.

    Every derived quantity is a ``cached_property`` of the read-only fields.
    Forms compare and hash by identity, and pickle or deep-copy by their fields.
    """

    edge_index: np.ndarray
    weights: np.ndarray
    measure: np.ndarray
    potential: np.ndarray
    boundary_mask: np.ndarray
    _ids: object = field(repr=False)
    name: str = ""

    def __post_init__(self):
        for arr in (self.edge_index, self.weights, self.measure, self.potential,
                    self.boundary_mask):
            arr.setflags(write=False)

    @classmethod
    def from_arrays(cls, vertices: Sequence[str], edge_index, weights, measure=None,
                    potential=None, dirichlet: Iterable[str] = (), name: str = "") -> "GraphForm":
        """Build a validated form from arrays indexed by position in ``vertices``.

        ``edge_index`` is an (m, 2) array of vertex positions with weights
        ``weights``; ``measure`` (default 1) and ``potential`` (default 0)
        hold one value per vertex; ``dirichlet`` lists vertex ids.  Vertices
        are reordered lexicographically and edges remapped to rows (i, j),
        i < j, in sorted order; repeated edges must carry equal weights and
        zero weights are dropped.  This is the string front end: it sorts
        the ids and maps ``dirichlet`` to a mask, and the numeric checks are
        those of :meth:`_from_canonical`.
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

        mu = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
        pot = np.zeros(n) if potential is None else np.asarray(potential, dtype=float)
        if mu.shape != (n,) or pot.shape != (n,):
            raise ParseError(f"measure and potential need one value per vertex ({n})")

        boundary = frozenset(str(v) for v in dirichlet)
        bad = boundary - index.keys()
        if bad:
            raise DisconnectedDirichletSpec(
                f"dirichlet set references unknown vertices: {sorted(bad)[:5]}"
            )
        mask = np.zeros(n, dtype=bool)
        if boundary:
            mask[[index[v] for v in boundary]] = True
        return cls._from_canonical(_SortedIds(canon, index), rank[pairs], w,
                                   mu[order], pot[order], mask, name)

    @classmethod
    def _from_canonical(cls, ids, pairs, w, mu, pot, boundary_mask,
                        name: str = "") -> "GraphForm":
        """The numeric construction core: a validated form from arrays already
        in the canonical vertex order of the id object ``ids``.  ``pairs`` is
        an (m, 2) int array of positions with weights ``w``, ``mu`` and
        ``pot`` hold one value per vertex and ``boundary_mask`` marks the
        Dirichlet vertices.  Edges are remapped to rows (i, j), i < j, in
        sorted order; repeated edges must carry equal weights and zero
        weights are dropped.  Error messages name vertices by ``ids[k]``."""
        i, j = pairs[:, 0], pairs[:, 1]
        loops = np.flatnonzero(i == j)
        if loops.size:
            raise NonSymmetricWeights(
                f"self-loop at {ids[i[loops[0]]]!r} (weights must vanish on the diagonal)")
        if not np.all(np.isfinite(w)):
            raise ParseError("edge weights must be finite")
        neg = np.flatnonzero(w < 0)
        if neg.size:
            k = neg[0]
            raise NonSymmetricWeights(
                f"negative weight {w[k]} on edge ({ids[i[k]]!r}, {ids[j[k]]!r})")
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
                f"conflicting weights for edge ({ids[lo[k]]!r}, {ids[hi[k]]!r}): "
                f"{w[lead[k]]} vs {w[k]}")
        keep = first & (w > 0)

        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise NonPositiveMeasure("mu must be strictly positive and finite")
        if not np.all(np.isfinite(pot)):
            raise ParseError("potential must be finite")

        form = cls(
            edge_index=np.column_stack([lo[keep], hi[keep]]),
            weights=w[keep],
            measure=mu,
            potential=pot,
            boundary_mask=boundary_mask,
            _ids=ids,
            name=str(name),
        )
        _validate_nonnegative(form)
        return form

    # -- basic geometry ----------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return self._ids.as_tuple()

    @cached_property
    def dirichlet(self) -> frozenset:
        return frozenset(map(self.vertices.__getitem__,
                             np.flatnonzero(self.boundary_mask).tolist()))

    @property
    def n(self) -> int:
        return len(self.measure)

    @property
    def n_edges(self) -> int:
        return self.edge_index.shape[0]

    def index(self, vertex: str) -> int:
        return self.indices([vertex])[0]

    def indices(self, vertices: Iterable[str]) -> list[int]:
        """Positions of ``vertices``, looked up in one pass over the ids."""
        position = self._ids.position
        try:
            return [position(v) for v in vertices]
        except KeyError as exc:
            raise DomainMismatch(f"unknown vertex id {exc.args[0]!r}") from None

    @cached_property
    def active(self) -> np.ndarray:
        idx = np.flatnonzero(~self.boundary_mask)
        idx.setflags(write=False)
        return idx

    @property
    def n_active(self) -> int:
        return int(self.active.size)

    # -- assembled matrices -------------------------------------------------

    @cached_property
    def form_matrix(self) -> sp.csr_matrix:
        """Sparse n x n matrix Q with q(f) = f @ Q @ f for boundary-vanishing f."""
        (i, j), b = self.edge_index.T, self.weights
        diag = self._degree + self.potential * self.measure
        rows = np.concatenate([i, j, np.arange(self.n)])
        cols = np.concatenate([j, i, np.arange(self.n)])
        vals = np.concatenate([-b, -b, diag])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def active_form_matrix(self) -> sp.csr_matrix:
        """Q restricted to the non-Dirichlet vertices (Q itself when there are none)."""
        if self.active.size == self.n:
            return self.form_matrix
        act = self.active
        return self.form_matrix[act][:, act].tocsr()

    @cached_property
    def active_measure(self) -> np.ndarray:
        m = self.measure[self.active]
        m.setflags(write=False)
        return m

    @cached_property
    def operator_norm_bound(self) -> float:
        """Row-sum bound on the mu-weighted operator norm of L."""
        vals = (2.0 * self._degree + np.abs(self.potential) * self.measure) / self.measure
        return float(np.max(vals[self.active], initial=0.0))

    @cached_property
    def symmetric_norm_bound(self) -> float:
        """Top row sum of |M^-1/2 Q M^-1/2| on the non-Dirichlet part.  M^-1 Q
        is self-adjoint in l2(mu), so this bounds its spectrum too, and unlike
        ``operator_norm_bound`` a spread measure cannot inflate it."""
        i, j = self.edge_index.T
        b = self.weights * ~(self.boundary_mask[i] | self.boundary_mask[j])
        d = 1.0 / np.sqrt(self.measure)
        off = np.bincount(i, b * d[j], minlength=self.n) + np.bincount(j, b * d[i], self.n)
        rows = d * (np.abs(self.form_matrix.diagonal()) * d + off)
        return float(np.max(rows[self.active], initial=0.0))

    @cached_property
    def _degree(self) -> np.ndarray:
        """Weighted degree of every vertex, Dirichlet edges included, summed in edge order."""
        return np.bincount(self.edge_index.T.ravel(), np.concatenate([self.weights] * 2),
                           minlength=self.n)

    @cached_property
    def _has_floating_component(self) -> bool:
        """Whether some connected component of the non-Dirichlet subgraph has
        zero potential and no edge to the Dirichlet set.  Constants on such a
        component lie in the kernel of Q, so the zero-shift system is singular.
        A vertex with a potential or a boundary edge anchors its component, so
        when every vertex is anchored no component floats."""
        i, j = self.edge_index[:, 0], self.edge_index[:, 1]
        boundary = self.boundary_mask
        anchored = self.potential != 0
        anchored[i[boundary[j]]] = True
        anchored[j[boundary[i]]] = True
        anchored = anchored[self.active]
        if anchored.all():
            return False
        _, labels = csgraph.connected_components(self.active_form_matrix, directed=False)
        return bool(np.setdiff1d(labels, labels[anchored]).size)

    @cached_property
    def _dense_spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and eigenvectors V of M^-1/2 Q M^-1/2 on the
        non-Dirichlet part, from one dense ``eigh``."""
        Q = self.active_form_matrix.toarray()
        d = np.sqrt(self.active_measure)
        S = Q / np.outer(d, d)
        return scipy.linalg.eigh(S)

    # -- copies --------------------------------------------------------------

    def __getstate__(self):
        # the fields alone: a pickled or deep-copied form derives its cached values afresh
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        vars(self).update(state)
        self.__post_init__()


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
    if form.active.size < arr.size and np.any(arr[form.boundary_mask] != 0.0):
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
    signed potential needs a proof that the pencil (Q, M) has no eigenvalue
    below -tol = -tol_psd * max(norm, 1), norm = ``symmetric_norm_bound``:
    u = (Q + (tol/2) M)^-1 mu must be a positive supersolution of Q + tol M.
    Else a witness f >= 0 with q(f) < -(tol/2)|f|^2_mu raises ``FormNotNonnegative``:
    e_x if Q_xx/mu_x < -tol/2 (no solve), else f = max(-u, 0), whose energy is at
    most -<f, mu> < 0 as Q + (tol/2) M has no positive entry off the diagonal;
    with neither certificate, ``SolverFailure``."""
    if np.all(form.potential[form.active] >= 0):     # also when no vertex is free
        return
    from .resolvent import _solve, _supersolution_proves, _witness_rayleigh

    tol = tolerance("tol_psd") * max(form.symmetric_norm_bound, 1.0)
    Q, mu = form.active_form_matrix, form.active_measure
    ratio = Q.diagonal() / mu
    f = np.arange(mu.size) == np.argmin(ratio)
    if ratio.min() >= -0.5 * tol:
        u = _solve(Q, mu, 0.5 * tol * mu)
        if _supersolution_proves(Q, tol * mu, u):
            return
        f = np.maximum(-u, 0.0)
    raise FormNotNonnegative(_witness_rayleigh(Q, mu, 0.5 * tol, f), tol)


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
    out[act] = (form.active_form_matrix @ vec[act]) / form.measure[act]
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
    in_a = np.zeros(form.n, dtype=bool)
    in_a[form.indices(ids)] = True
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
