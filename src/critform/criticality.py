"""Capacity along exhaustions, the subcritical/critical verdict, ground states
and null sequences."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse.csgraph as csgraph

from .config import tolerance
from .errors import CritformError, DomainMismatch, NoConvergence, NotCritical, ValidationFailure
from .forms import GraphForm
from .hardy import hardy_weight
from .solvers import solve_spd

__all__ = [
    "Exhaustion",
    "CapacityResult",
    "ClassificationReport",
    "GroundState",
    "capacity",
    "classify",
    "agmon_ground_state",
    "null_sequence",
]

# Fixed note carried by every classification report: the two-verdict scheme is
# complete here because finite positivity-preserving semigroups always admit a
# nontrivial nonnegative invariant-cone direction, so the degenerate third
# alternative (no nonzero nonnegative supersolutions at all) cannot occur.
_EXCLUSION_NOTE = (
    "verdicts are limited to Subcritical/Critical: on finite levels the "
    "positivity-preserving semigroup always has nonnegative supersolutions, so "
    "the degenerate alternative is excluded; Inconclusive only reflects an "
    "insufficient radius schedule"
)

# Engineering thresholds of the capacity-trace verdict; the zero-limit floor is ``tol_cap``.
STABILIZATION_REL = 1e-4        # relative flatness over the trailing window
STABILIZATION_WINDOW = 3        # trailing radii checked for flatness
SLOPE_THRESHOLD = -0.2          # log-log slope certifying decay to zero
SLOPE_BAND = 2.0                # stderr multiples that must stay below zero
EXTRAPOLATION_REL_RESID = 0.05  # model fit quality gate (range-normalized)
COMPETITION_FACTOR = 4.0        # winning model must fit this much better
POSITIVE_FLOOR_FACTOR = 10.0    # limit must exceed factor * tol_cap


@dataclass(frozen=True)
class Exhaustion:
    """A nested family of graph forms indexed by radius.

    ``generator(R)`` must restrict ``generator(R')`` for R <= R' (same weights,
    measure and potential on shared vertices, Dirichlet condition on the outer
    shell), and the root must be an interior vertex of every level.
    """

    generator: Callable[[int], GraphForm]
    radii: tuple
    root: str

    def __post_init__(self):
        radii = tuple(int(r) for r in self.radii)
        if len(radii) < 1 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing and nonempty")
        object.__setattr__(self, "radii", radii)

    def level(self, radius: int) -> GraphForm:
        form = self.generator(radius)
        try:
            root = form.index(self.root)
        except DomainMismatch:
            raise DomainMismatch(f"root {self.root!r} missing from level {radius}") from None
        if form.boundary_mask[root]:
            raise DomainMismatch(f"root {self.root!r} lies on the boundary of level {radius}")
        return form

    def validate_nesting(self) -> None:
        """Spot-check that the first three levels agree on shared data: every
        id of a level lies in the next, with the same measure and potential,
        and its interior edges keep their weights there."""
        forms = [self.level(r) for r in self.radii[:3]]
        for small, large in zip(forms, forms[1:]):
            try:
                at = np.array(large.indices(small.vertices), dtype=np.int64)
            except DomainMismatch as exc:
                raise ValidationFailure(f"levels do not nest: {exc}") from None
            bad = np.flatnonzero((small.measure != large.measure[at])
                                 | (small.potential != large.potential[at]))
            if bad.size:                                # the smallest id in string order
                raise ValidationFailure(
                    f"levels disagree at vertex {min(small.vertices[k] for k in bad)!r}")
            interior = ~small.boundary_mask[small.edge_index].any(axis=1)
            edges, w = small.edge_index[interior], small.weights[interior]
            # ``at`` keeps the canonical order, so rows stay (i < j); large's rows are
            # sorted, so their keys are, and the sentinel's NaN weight matches no edge
            lo, hi = at[edges].T
            keys = np.append(large.edge_index[:, 0] * large.n + large.edge_index[:, 1],
                             large.n ** 2)
            want = lo * large.n + hi
            k = np.searchsorted(keys, want)
            bad = np.flatnonzero((keys[k] != want) | (np.append(large.weights, np.nan)[k] != w))
            if bad.size:
                a, b = edges[bad[0]]
                raise ValidationFailure(
                    f"levels disagree on edge {(small.vertices[a], small.vertices[b])}")


@dataclass(frozen=True)
class CapacityResult:
    value: float
    equilibrium: np.ndarray  # 1 on the source, harmonic in between, 0 on the boundary


def capacity(form: GraphForm, source) -> CapacityResult:
    """Minimum energy over functions equal to 1 on ``source`` and 0 on the
    Dirichlet set; the minimizer (equilibrium potential) is returned.

    Raises ``SolverFailure`` when the system on the free vertices joined to
    the source is singular beyond what the residual certificate accepts."""
    src_ids = {str(v) for v in (source if not isinstance(source, str) else [source])}
    if not src_ids:
        raise DomainMismatch("source must be nonempty")
    src_idx = np.array(sorted(form.indices(src_ids)), dtype=np.int64)
    if form.boundary_mask[src_idx].any():
        raise DomainMismatch("source intersects the Dirichlet boundary")

    mask_src = np.zeros(form.n, dtype=bool)
    mask_src[src_idx] = True
    free = np.flatnonzero(~mask_src & ~form.boundary_mask)

    e = np.zeros(form.n)
    e[src_idx] = 1.0
    if free.size:
        Q_free = form.form_matrix[free]
        A = Q_free[:, free]
        rhs = -np.asarray(Q_free[:, src_idx].sum(axis=1)).ravel()
        # The equilibrium vanishes on components of the free subgraph that no
        # edge joins to the source: their right-hand side is zero.
        _, labels = csgraph.connected_components(A, directed=False)
        joined = np.flatnonzero(np.isin(labels, labels[rhs != 0]))
        if joined.size < free.size:
            A, rhs, free = A[joined][:, joined], rhs[joined], free[joined]
        if free.size:
            e[free] = solve_spd(A, rhs)
    value = float(e @ (form.form_matrix @ e))
    return CapacityResult(value=value, equilibrium=e)


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str                      # "Subcritical" | "Critical" | "Inconclusive"
    capacity_trace: tuple             # ((R, cap_R), ...)
    reason: str
    fit: dict
    notes: str
    ground_state: dict | None = None
    hardy_summary: dict | None = None


def _power_fit(radii: np.ndarray, caps: np.ndarray):
    """Least-squares slope of log(cap) against log(R) with its stderr."""
    x = np.log(radii)
    y = np.log(np.maximum(caps, 1e-300))
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0 or n < 3:
        return 0.0, np.inf
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    se = float(np.sqrt(np.sum(resid**2) / (n - 2) / sxx))
    return slope, se


def _linear_fit_normalized(x: np.ndarray, y: np.ndarray):
    """Least squares y ~ b0 + b1 x; residual is normalized by the range of y,
    i.e. by the variation the model is asked to explain."""
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    spread = float(np.max(y) - np.min(y))
    scale = max(spread, 1e-12 * max(abs(float(np.max(np.abs(y)))), 1e-300))
    return coef, float(np.max(np.abs(resid)) / scale)


def classify(exhaustion: Exhaustion, with_artifacts: bool = False) -> ClassificationReport:
    """Run the capacity trace along the exhaustion and decide the verdict.

    Decision order: (1) trace below the absolute floor -> Critical;
    (2) trace flat above the floor -> Subcritical; (3) decisively negative
    log-log slope over the trailing half -> Critical; (4) positive limit of a
    1/R extrapolation that wins the model competition, with shallow slope ->
    Subcritical; otherwise Inconclusive.  Later radii only refine, never flip,
    a decisive verdict.  The extrapolated limit is a least-squares fit, not a
    bound on the true capacity.
    """
    radii = exhaustion.radii
    window = (_GroundStateTrace(exhaustion, max(min(radii[0], radii[-1] // 4), 1))
              if with_artifacts else None)
    trace, top = _capacity_trace(exhaustion, radii, window)
    verdict, reason, fit = _verdict(*np.array(trace, dtype=float).T)

    report = ClassificationReport(
        verdict=verdict,
        capacity_trace=tuple(trace),
        reason=reason,
        fit=fit,
        notes=_EXCLUSION_NOTE,
    )
    if with_artifacts:
        report = _attach_artifacts(exhaustion, report, top, window)
    return report


def _capacity_trace(exhaustion: Exhaustion, radii, visit=None):
    """Capacity trace ((R, cap_R), ...) along ``radii`` and its last level, one level alive
    at a time and passed to ``visit``; a capacity that grows with R raises ``ValidationFailure``."""
    trace, level = [], None
    for radius in radii:
        level = exhaustion.level(radius)
        cap = capacity(level, {exhaustion.root})
        trace.append((radius, cap.value))
        if len(trace) >= 2 and trace[-1][1] > trace[-2][1] * (1 + 1e-8) + 1e-14:
            raise ValidationFailure(
                f"capacity increased from radius {trace[-2][0]} to {radius}: "
                f"{trace[-2][1]:.6e} -> {trace[-1][1]:.6e} (generator is not nested)"
            )
        if visit is not None:
            visit(radius, level, cap)
    return trace, level


def _verdict(radii: np.ndarray, caps: np.ndarray):
    fit: dict = {}
    tol_cap = tolerance("tol_cap")
    floor = POSITIVE_FLOOR_FACTOR * tol_cap
    if caps[-1] <= tol_cap:
        return "Critical", f"capacity {caps[-1]:.3e} below floor {tol_cap:.1e}", fit

    k = STABILIZATION_WINDOW
    if len(caps) >= k:
        window = caps[-k:]
        flat = (window.max() - window.min()) <= STABILIZATION_REL * abs(window[-1])
        if flat and caps[-1] > floor:
            fit["stabilized_value"] = float(caps[-1])
            return "Subcritical", f"trace flat at {caps[-1]:.6e} over last {k} radii", fit

    half = max(3, len(caps) // 2)
    tail_r, tail_c = radii[-half:], caps[-half:]
    if len(tail_r) >= 3:
        slope, se = _power_fit(tail_r, tail_c)
        fit["slope"] = slope
        fit["slope_se"] = se
        if slope <= SLOPE_THRESHOLD and slope + SLOPE_BAND * se < 0:
            return "Critical", f"decisive power-law decay (slope {slope:.3f} +- {se:.3f})", fit

        # Model competition on the trailing window.  A slow decay to zero
        # (reciprocal capacity linear in log R) and a finite positive limit
        # (capacity linear in 1/R) look alike pointwise; demand a decisively
        # better fit before certifying either.
        coef1, r1 = _linear_fit_normalized(1.0 / tail_r, tail_c)
        c_inf = float(coef1[0])
        coef2, r2 = _linear_fit_normalized(np.log(tail_r), 1.0 / tail_c)
        log_slope = float(coef2[1])
        fit["extrapolated_limit"] = c_inf
        fit["inverse_radius_resid"] = r1
        fit["reciprocal_log_resid"] = r2
        fit["reciprocal_log_slope"] = log_slope

        gate, factor = EXTRAPOLATION_REL_RESID, COMPETITION_FACTOR
        log_wins = r2 <= gate and r2 * factor <= r1 and log_slope > 0
        lim_wins = r1 <= gate and r1 * factor <= r2 and slope > SLOPE_THRESHOLD
        if log_wins:
            return (
                "Critical",
                f"reciprocal capacity linear in log R (resid {r2:.2e} vs 1/R fit {r1:.2e})",
                fit,
            )
        if lim_wins and c_inf > floor:
            return "Subcritical", f"certified 1/R extrapolation to {c_inf:.6e}", fit
        if lim_wins and abs(c_inf) <= floor:
            return "Critical", f"1/R extrapolation vanishes ({c_inf:.3e})", fit

    return "Inconclusive", "trace neither vanished, stabilized, nor fit a model", fit


def _attach_artifacts(exhaustion: Exhaustion, report: ClassificationReport,
                      last_level: GraphForm, window: _GroundStateTrace) -> ClassificationReport:
    """Populate the ground-state or weight summary demanded by the verdict; the
    ground state comes from the visitor that rode the classifying pass."""
    ground_state = None
    hardy_summary = None
    if report.verdict == "Critical":
        try:
            gs = window.ground_state(last_level)
            ground_state = {
                "window_radius": gs.window_radius,
                "residual_sup": gs.residual_sup,
                "min": float(np.min(gs.values)),
                "max": float(np.max(gs.values)),
            }
        except (NoConvergence, DomainMismatch) as exc:
            ground_state = {"error": f"{type(exc).__name__}: {exc}"}
    elif report.verdict == "Subcritical":
        g = np.zeros(last_level.n)
        g[last_level.index(exhaustion.root)] = 1.0
        try:
            hw = hardy_weight(last_level, g, n_samples=100, seed=0)
            hardy_summary = {
                "alpha_used": hw.alpha_used,
                "max_weight": float(np.max(hw.values)),
                "rho_sampled": hw.verification.rho_sampled,
                "passed": hw.verification.passed,
            }
        except CritformError as exc:  # report, never crash the verdict
            hardy_summary = {"error": f"{type(exc).__name__}: {exc}"}
    return replace(report, ground_state=ground_state, hardy_summary=hardy_summary)


@dataclass(frozen=True)
class GroundState:
    vertices: tuple
    values: np.ndarray
    root: str
    residual_sup: float
    levels_used: tuple
    window_radius: int

    def as_mapping(self) -> dict:
        return {v: float(x) for v, x in zip(self.vertices, self.values)}


def agmon_ground_state(exhaustion: Exhaustion, window_radius: int) -> GroundState:
    """Extract the normalized positive kernel profile of a critical form.

    Equilibrium potentials of growing levels are extrapolated pointwise
    (linear in the level's capacity cap_R) on the window; convergence
    demands the last two extrapolants agree to the table's ``tol_gs`` in sup
    norm.  Normalization: value 1 at the root.  The same pass over the
    levels classifies.
    """
    window = _GroundStateTrace(exhaustion, window_radius)
    trace, top = _capacity_trace(exhaustion, exhaustion.radii, window)
    verdict = _verdict(*np.array(trace, dtype=float).T)[0]
    if verdict != "Critical":
        raise NotCritical(f"classification verdict is {verdict}")
    return window.ground_state(top)


class _GroundStateTrace:
    """``_capacity_trace`` visitor: each level with radius > ``window_radius``
    leaves its equilibrium on the ids of the first level with radius >=
    ``window_radius`` (which holds the window by the nesting contract).  The
    window's own ids, and a ``DomainMismatch`` from a lookup, wait until the
    ground state is read, so a verdict that needs none builds no extra level.

    The equilibria are extrapolated against the level's capacity, not 1/R:
    e_R(x) = G_R(x, o)/G_R(o, o) for the root o, so 1 - e_R(x) =
    cap_R (G_R(o, o) - G_R(x, o)), and on a critical form the bracket
    converges (to the potential kernel on recurrent lattices).  The defect
    is linear in cap_R however slowly cap_R vanishes."""

    def __init__(self, exhaustion: Exhaustion, window_radius: int):
        self.exhaustion, self.window_radius = exhaustion, window_radius
        self.first = self.window = self.error = None
        self.rows = {}              # radius -> equilibrium on the ids in ``first``
        self.caps = {}              # radius -> capacity of that level

    def __call__(self, radius, level, cap):
        if self.first is None and radius >= self.window_radius:
            self.first = level.vertices     # and the window's positions, if this level is it
            self.window = level.active if radius == self.window_radius else None
        if radius > self.window_radius and self.error is None:
            try:
                self.rows[radius] = cap.equilibrium[level.indices(self.first)]
                self.caps[radius] = cap.value
            except DomainMismatch as exc:
                self.error = exc

    def ground_state(self, top: GraphForm) -> GroundState:
        """Extrapolate the recorded equilibria; ``top`` is the residual's level."""
        if self.error is not None:
            raise self.error
        tol = tolerance("tol_gs")
        levels = list(self.rows)
        if len(levels) < 3:
            raise NoConvergence(f"need at least 3 levels beyond window radius "
                                f"{self.window_radius}, have {len(levels)}")
        if self.window is None:
            form = self.exhaustion.level(self.window_radius)
            position = {v: i for i, v in enumerate(self.first)}
            try:
                self.window = [position[form.vertices[i]] for i in form.active]
            except KeyError as exc:
                raise DomainMismatch(f"unknown vertex id {exc.args[0]!r}") from None
        window_ids = [self.first[i] for i in self.window]
        values = np.array(list(self.rows.values()))[:, self.window]
        caps = np.array(list(self.caps.values()))

        def intercepts(rows) -> np.ndarray:
            A = np.column_stack([np.ones(len(rows)), caps[rows]])
            coef, *_ = np.linalg.lstsq(A, values[rows], rcond=None)
            return coef[0]

        k_fit = min(4, len(levels))
        last = list(range(len(levels) - k_fit, len(levels)))
        h = intercepts(last)
        if len(levels) > k_fit:
            prev = list(range(len(levels) - k_fit - 1, len(levels) - 1))
        else:
            prev = last[:-1]
        h_prev = intercepts(prev)
        drift = float(np.max(np.abs(h - h_prev)))
        if drift > tol:
            raise NoConvergence(
                f"window extrapolants still drifting by {drift:.3e} > {tol:.1e}; extend the radii"
            )

        root_val = h[window_ids.index(self.exhaustion.root)]
        if root_val <= 0 or np.any(h <= 0):
            raise NoConvergence("extrapolated profile is not strictly positive on the window")
        h = h / root_val

        # Residual of the generator on window vertices whose neighbors stay
        # inside the window, evaluated on the largest level.
        window = np.array(top.indices(window_ids), dtype=np.int64)
        in_window = np.zeros(top.n, dtype=bool)
        in_window[window] = True
        hfull = np.zeros(top.n)
        hfull[window] = h
        i, j = top.edge_index[:, 0], top.edge_index[:, 1]
        inner = in_window.copy()
        inner[i[~in_window[j]]] = False
        inner[j[~in_window[i]]] = False
        Lh = (top.form_matrix @ hfull) / top.measure
        resid = float(np.max(np.abs(Lh[inner]), initial=0.0))

        return GroundState(
            vertices=tuple(window_ids),
            values=h,
            root=self.exhaustion.root,
            residual_sup=resid,
            levels_used=tuple(levels),
            window_radius=self.window_radius,
        )


@dataclass(frozen=True)
class NullSequenceTerm:
    radius: int
    vertices: tuple             # the level's ids, as ``form.vertices`` gives them
    function: np.ndarray
    energy: float


def null_sequence(exhaustion: Exhaustion, n_terms: int) -> list[NullSequenceTerm]:
    """Equilibrium potentials of the first ``n_terms`` levels; for critical
    forms their energies are the vanishing capacity trace (a growing one
    raises ``ValidationFailure``).  Each term keeps its level's ids, not the
    level, so one level is alive at a time."""
    terms = []
    _capacity_trace(exhaustion, exhaustion.radii[:n_terms], lambda radius, level, cap:
                    terms.append(NullSequenceTerm(radius, level.vertices, cap.equilibrium,
                                                  cap.value)))
    return terms
