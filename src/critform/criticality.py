"""Capacity along exhaustions, the subcritical/critical verdict, ground states
and certificate cross-checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse.csgraph as csgraph

from .config import tolerances
from .errors import (
    DomainMismatch,
    GreenInconclusive,
    InconsistentCertificates,
    NoConvergence,
    NotCritical,
    ValidationFailure,
)
from .forms import GraphForm, as_function, evaluate_rows
from .resolvent import green_apply, solve_spd

__all__ = [
    "Exhaustion",
    "CapacityResult",
    "ClassificationReport",
    "ClassifyConfig",
    "GroundState",
    "capacity",
    "classify",
    "agmon_ground_state",
    "null_sequence",
    "subcriticality_certificates",
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
        if self.root not in form.vertices:
            raise DomainMismatch(f"root {self.root!r} missing from level {radius}")
        if self.root in form.dirichlet:
            raise DomainMismatch(f"root {self.root!r} lies on the boundary of level {radius}")
        return form

    def validate_nesting(self, pairs: int = 2) -> None:
        """Spot-check that consecutive levels agree on shared data."""
        radii = self.radii[: pairs + 1]
        forms = [self.level(r) for r in radii]
        for small, large in zip(forms, forms[1:]):
            shared = set(small.vertices) & set(large.vertices)
            for v in shared:
                i, j = small.index(v), large.index(v)
                if small.measure[i] != large.measure[j] or small.potential[i] != large.potential[j]:
                    raise ValidationFailure(f"levels disagree at vertex {v!r}")
            small_edges = {
                (small.vertices[a], small.vertices[b]): w
                for (a, b), w in zip(small.edge_index, small.weights)
            }
            large_edges = {
                (large.vertices[a], large.vertices[b]): w
                for (a, b), w in zip(large.edge_index, large.weights)
            }
            for key, w in small_edges.items():
                if key[0] in shared and key[1] in shared:
                    interior = not (key[0] in small.dirichlet or key[1] in small.dirichlet)
                    if interior and large_edges.get(key) != w:
                        raise ValidationFailure(f"levels disagree on edge {key}")


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
    if src_ids & form.dirichlet:
        raise DomainMismatch("source intersects the Dirichlet boundary")
    src_idx = np.array(sorted(form.index(v) for v in src_ids), dtype=np.int64)

    mask_src = np.zeros(form.n, dtype=bool)
    mask_src[src_idx] = True
    free = np.flatnonzero(~mask_src & ~form.boundary_mask)

    e = np.zeros(form.n)
    e[src_idx] = 1.0
    if free.size:
        Q_free = form.form_matrix[free]
        A = Q_free[:, free].tocsc()
        rhs = -np.asarray(Q_free[:, src_idx].sum(axis=1)).ravel()
        # The equilibrium vanishes on components of the free subgraph that no
        # edge joins to the source: their right-hand side is zero.
        _, labels = csgraph.connected_components(A, directed=False)
        joined = np.flatnonzero(np.isin(labels, labels[rhs != 0]))
        if joined.size < free.size:
            A, rhs, free = A[joined][:, joined], rhs[joined], free[joined]
        if free.size:
            e[free] = solve_spd(A)(rhs)
    value = float(e @ (form.form_matrix @ e))
    return CapacityResult(value=value, equilibrium=e)


@dataclass(frozen=True)
class ClassifyConfig:
    """Thresholds steering the capacity-trace verdict (engineering choices,
    echoed into every report)."""

    tol_cap: float = field(default_factory=lambda: tolerances()["tol_cap"])  # zero-limit floor
    stabilization_rel: float = 1e-4  # relative flatness over the trailing window
    stabilization_window: int = 3    # trailing radii checked for flatness
    slope_threshold: float = -0.2    # log-log slope certifying decay to zero
    slope_band: float = 2.0          # stderr multiples that must stay below zero
    extrapolation_rel_resid: float = 0.05  # model fit quality gate (range-normalized)
    competition_factor: float = 4.0  # winning model must fit this much better
    positive_floor_factor: float = 10.0    # limit must exceed factor * tol_cap


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str                      # "Subcritical" | "Critical" | "Inconclusive"
    capacity_trace: tuple             # ((R, cap_R), ...)
    reason: str
    fit: dict
    config: ClassifyConfig
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


def classify(exhaustion: Exhaustion, config: ClassifyConfig | None = None,
             with_artifacts: bool = False) -> ClassificationReport:
    """Run the capacity trace along the exhaustion and decide the verdict.

    Decision order: (1) trace below the absolute floor -> Critical;
    (2) trace flat above the floor -> Subcritical; (3) decisively negative
    log-log slope over the trailing half -> Critical; (4) positive limit of a
    certified 1/R extrapolation with shallow slope -> Subcritical; otherwise
    Inconclusive.  Later radii only refine, never flip, a decisive verdict.
    """
    cfg = config or ClassifyConfig()
    trace, top = _capacity_trace(exhaustion, exhaustion.radii)
    verdict, reason, fit = _verdict(*np.array(trace, dtype=float).T, cfg)

    report = ClassificationReport(
        verdict=verdict,
        capacity_trace=tuple(trace),
        reason=reason,
        fit=fit,
        config=cfg,
        notes=_EXCLUSION_NOTE,
    )
    if with_artifacts:
        report = _attach_artifacts(exhaustion, report, top)
    return report


def _capacity_trace(exhaustion: Exhaustion, radii, visit=lambda radius, level, cap: None):
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
        visit(radius, level, cap)
    return trace, level


def _verdict(radii: np.ndarray, caps: np.ndarray, cfg: ClassifyConfig):
    fit: dict = {}
    if caps[-1] <= cfg.tol_cap:
        return "Critical", f"capacity {caps[-1]:.3e} below floor {cfg.tol_cap:.1e}", fit

    k = cfg.stabilization_window
    if len(caps) >= k:
        window = caps[-k:]
        flat = (window.max() - window.min()) <= cfg.stabilization_rel * abs(window[-1])
        if flat and caps[-1] > cfg.positive_floor_factor * cfg.tol_cap:
            fit["stabilized_value"] = float(caps[-1])
            return "Subcritical", f"trace flat at {caps[-1]:.6e} over last {k} radii", fit

    half = max(3, len(caps) // 2)
    tail_r, tail_c = radii[-half:], caps[-half:]
    if len(tail_r) >= 3:
        slope, se = _power_fit(tail_r, tail_c)
        fit["slope"] = slope
        fit["slope_se"] = se
        if slope <= cfg.slope_threshold and slope + cfg.slope_band * se < 0:
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

        gate = cfg.extrapolation_rel_resid
        factor = cfg.competition_factor
        floor = cfg.positive_floor_factor * cfg.tol_cap
        log_wins = r2 <= gate and r2 * factor <= r1 and log_slope > 0
        lim_wins = r1 <= gate and r1 * factor <= r2 and slope > cfg.slope_threshold
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
                      last_level: GraphForm) -> ClassificationReport:
    """Populate the ground-state or weight summary demanded by the verdict."""
    import dataclasses

    ground_state = None
    hardy_summary = None
    if report.verdict == "Critical":
        try:
            window = max(min(exhaustion.radii[0], exhaustion.radii[-1] // 4), 1)
            gs = agmon_ground_state(exhaustion, window_radius=window, report=report)
            ground_state = {
                "window_radius": gs.window_radius,
                "residual_sup": gs.residual_sup,
                "min": float(np.min(gs.values)),
                "max": float(np.max(gs.values)),
            }
        except (NoConvergence, NotCritical, DomainMismatch) as exc:
            ground_state = {"error": f"{type(exc).__name__}: {exc}"}
    elif report.verdict == "Subcritical":
        from .hardy import hardy_weight

        g = np.zeros(last_level.n)
        g[last_level.index(exhaustion.root)] = 1.0
        try:
            hw = hardy_weight(last_level, g, n_samples=100, seed=0)
            hardy_summary = {
                "alpha_used": hw.alpha_used,
                "max_weight": float(np.max(hw.values)),
                "rho_sampled": hw.verification.rho_sampled if hw.verification else None,
                "passed": hw.verification.passed if hw.verification else None,
            }
        except Exception as exc:  # report, never crash the verdict
            hardy_summary = {"error": f"{type(exc).__name__}: {exc}"}
    return dataclasses.replace(report, ground_state=ground_state, hardy_summary=hardy_summary)


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


def agmon_ground_state(exhaustion: Exhaustion, window_radius: int,
                       report: ClassificationReport | None = None,
                       tol_gs: float | None = None) -> GroundState:
    """Extract the normalized positive kernel profile of a critical form.

    Equilibrium potentials of growing levels are extrapolated pointwise
    (linear in 1/R) on the window; convergence demands the last two
    extrapolants agree to ``tol_gs`` in sup norm.  Normalization: value 1 at
    the root.  Without a ``report`` the same pass over the levels classifies.
    """
    tol = tolerances()["tol_gs"] if tol_gs is None else float(tol_gs)
    if report is not None and report.verdict != "Critical":
        raise NotCritical(f"classification verdict is {report.verdict}")

    radii = [r for r in exhaustion.radii if report is None or r > window_radius]
    values, window_ids = [], None

    def extract(radius, level, cap):
        nonlocal window_ids
        if radius >= window_radius and window_ids is None:
            window_form = level if radius == window_radius else exhaustion.level(window_radius)
            window_ids = [window_form.vertices[i] for i in window_form.active]
        if radius > window_radius:
            values.append([cap.equilibrium[level.index(v)] for v in window_ids])
    trace, top = _capacity_trace(exhaustion, radii, extract)       # top: the residual's level
    if report is None:
        verdict = _verdict(*np.array(trace, dtype=float).T, ClassifyConfig())[0]
        if verdict != "Critical":
            raise NotCritical(f"classification verdict is {verdict}")

    levels = [r for r in radii if r > window_radius]
    if len(levels) < 3:
        raise NoConvergence(
            f"need at least 3 levels beyond window radius {window_radius}, have {len(levels)}"
        )
    values = np.array(values)

    def intercepts(rows) -> np.ndarray:
        rs = np.array([levels[i] for i in rows], dtype=float)
        A = np.column_stack([np.ones_like(rs), 1.0 / rs])
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

    root_val = h[window_ids.index(exhaustion.root)]
    if root_val <= 0 or np.any(h <= 0):
        raise NoConvergence("extrapolated profile is not strictly positive on the window")
    h = h / root_val

    # Residual of the generator on window vertices whose neighbors stay inside
    # the window, evaluated on the largest level.
    window = np.array([top.index(v) for v in window_ids], dtype=np.int64)
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
        root=exhaustion.root,
        residual_sup=resid,
        levels_used=tuple(levels),
        window_radius=window_radius,
    )


@dataclass(frozen=True)
class NullSequenceTerm:
    radius: int
    level: GraphForm
    function: np.ndarray
    energy: float


def null_sequence(exhaustion: Exhaustion, n_terms: int) -> list[NullSequenceTerm]:
    """Equilibrium potentials of the first ``n_terms`` levels; for critical
    forms their energies are the vanishing capacity trace (a growing one
    raises ``ValidationFailure``)."""
    terms = []
    _capacity_trace(exhaustion, exhaustion.radii[:n_terms], lambda radius, level, cap:
                    terms.append(NullSequenceTerm(radius, level, cap.equilibrium, cap.value)))
    return terms


@dataclass(frozen=True)
class CertificateBundle:
    per_level: tuple            # ((R, kappa_exact, green_sup), ...)
    kappa_sampled: float
    kappa_trend: str            # "stable" | "growing" | "short"
    capacity_verdict: str
    consistent: bool
    extrapolated_green_at_root: float | None
    notes: str


def subcriticality_certificates(exhaustion: Exhaustion, g=None, alpha_schedule=None,
                                report: ClassificationReport | None = None) -> CertificateBundle:
    """Cross-check three equivalent subcriticality witnesses along the levels:
    boundedness of the smoothing limit applied to g, boundedness of the best
    constant kappa in the L1(g)-energy inequality, and the capacity verdict.
    Without a ``report`` the same pass over the levels classifies.

    Raises InconsistentCertificates when decisive signals disagree.
    """
    per_level = []
    kappa_sampled = 0.0
    root_trace = []

    def certify(radius, level, cap=None):
        nonlocal kappa_sampled
        if g is None:
            gv = np.zeros(level.n)
            gv[level.index(exhaustion.root)] = 1.0
        else:
            gv = as_function(level, g(level) if callable(g) else g)
        gv = gv.copy()
        gv[level.boundary_mask] = 0.0
        if np.any(gv < 0) or not np.any(gv > 0):
            raise DomainMismatch("g must be nonnegative and not identically zero")

        try:
            green = green_apply(level, gv, alpha_schedule=alpha_schedule)
        except GreenInconclusive as exc:
            raise InconsistentCertificates(
                f"level {radius}: smoothing limit inconclusive; extend the shift schedule"
            ) from exc
        if not green.finite:
            # A level with a diverging limit certifies criticality outright
            # (possible when the level itself carries no Dirichlet boundary).
            per_level.append((radius, np.inf, np.inf))
            return
        kappa_exact = float(np.sqrt(max(np.sum(green.value * gv * level.measure), 0.0)))
        green_sup = float(np.max(np.abs(green.value)))
        per_level.append((radius, kappa_exact, green_sup))
        root_trace.append(green.value[level.index(exhaustion.root)])

        if radius == exhaustion.radii[-1]:
            # the L1(g)-energy ratio of G g, which maximizes it over all f
            act = level.active
            energy = evaluate_rows(level, green.value[None, act])[0]
            if energy > 0:
                kappa_sampled = float(np.sum(np.abs(green.value[act]) * gv[act]
                                             * level.active_measure) / np.sqrt(energy))

    if report is None:
        trace, _ = _capacity_trace(exhaustion, exhaustion.radii, certify)
        verdict = _verdict(*np.array(trace, dtype=float).T, ClassifyConfig())[0]
    else:
        for radius in exhaustion.radii:
            certify(radius, exhaustion.level(radius))
        verdict = report.verdict

    kappas = np.array([k for _, k, _ in per_level])
    diverged = bool(np.any(np.isinf(kappas)))
    if diverged:
        trend = "growing"
    elif len(kappas) >= 3:
        tail_rel = abs(kappas[-1] - kappas[-2]) / max(kappas[-1], 1e-300)
        if tail_rel < 1e-3:
            trend = "stable"
        else:
            slope, _ = _power_fit(np.array(exhaustion.radii[-3:], dtype=float), kappas[-3:])
            trend = "growing" if slope > 0.05 else "stable"
    else:
        trend = "short"

    # kappa on the last level can exceed the sampled value but never the exact one
    if not diverged and kappa_sampled > kappas[-1] * (1 + 1e-6) + 1e-12:
        raise InconsistentCertificates(
            f"sampled kappa {kappa_sampled:.6e} exceeds the exact constant {kappas[-1]:.6e}"
        )

    consistent = True
    if verdict == "Subcritical" and trend == "growing":
        consistent = False
    if verdict == "Critical" and trend == "stable":
        consistent = False
    if not consistent:
        raise InconsistentCertificates(
            f"kappa trend {trend!r} contradicts capacity verdict {verdict!r}"
        )

    extrap = None
    if len(root_trace) >= 3:
        w0, w1, w2 = root_trace[-3:]
        denom = (w2 - w1) - (w1 - w0)
        if abs(denom) > 1e-300:
            extrap = float(w2 - (w2 - w1) ** 2 / denom)
        else:
            extrap = float(w2)

    return CertificateBundle(
        per_level=tuple(per_level),
        kappa_sampled=kappa_sampled,
        kappa_trend=trend,
        capacity_verdict=verdict,
        consistent=consistent,
        extrapolated_green_at_root=extrap,
        notes="per-level smoothing limits are finite by construction; the "
              "criticality signal is their growth across levels",
    )
