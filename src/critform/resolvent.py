"""Resolvents, heat semigroup, vanishing-shift limits and excessivity tests of a
GraphForm; every linear solve goes through ``solvers.solve_spd``."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import tolerance
from .errors import GreenInconclusive, SolverFailure
from .forms import GraphForm, as_domain_function, as_function, evaluate
from .solvers import solve_spd

__all__ = [
    "GreenResult",
    "ExcessivityReport",
    "ContractionReport",
    "resolvent_apply",
    "semigroup_apply",
    "green_apply",
    "direct_green_solve",
    "default_alpha_schedule",
    "is_excessive",
    "check_resolvent_contraction",
]

DENSE_SEMIGROUP_CUTOFF = 500    # vertices; above this use Krylov propagation
DIVERGENCE_FACTOR = 1e12        # sup-norm blowup factor declaring divergence
DIVERGENCE_SLOPE = -0.9         # log-log slope of the trace declaring divergence


def _resolvent_grid(form: GraphForm, vec: np.ndarray, alpha) -> np.ndarray:
    """(Q + alpha M)^-1 M vec on the non-Dirichlet part from one ``solve_spd``
    call: a vector for one shift alpha >= 0 (zero adds no diagonal), or the
    (n_active, k) block of columns for a 1-D array of k shifts, all positive
    (else ``ValueError``)."""
    stacked = np.ndim(alpha) == 1
    if stacked and np.min(alpha) <= 0:
        raise ValueError("alpha must be positive")
    act = form.active
    if act.size == 0:
        return np.zeros((0,) + np.shape(alpha))
    shift = np.multiply.outer(alpha, form.active_measure) if stacked or alpha else None
    return solve_spd(form.active_form_matrix, form.measure[act] * vec[act], shift)


def resolvent_apply(form: GraphForm, f, alpha: float) -> np.ndarray:
    """Apply the resolvent (L + alpha)^(-1) at shift alpha > 0.

    Defined weakly by q(u, g) + alpha <u, g>_mu = <f, g>_mu for all test g; the
    output vanishes on the Dirichlet set and is nonnegative for nonnegative f.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    out = np.zeros(form.n)
    out[form.active] = _resolvent_grid(form, as_function(form, f), float(alpha))
    return out


def direct_green_solve(form: GraphForm, f) -> np.ndarray | None:
    """Exact zero-shift solve Q u = M f on the non-Dirichlet part, or None.

    Returns None when the system is singular: at once when a component of
    the non-Dirichlet subgraph floats free of potential and boundary, else
    when the solve fails its residual certificate.  Callers then fall back to
    the shift-schedule limit."""
    vec = as_function(form, f)
    if form._has_floating_component:
        return None
    out = np.zeros(form.n)
    try:
        out[form.active] = _resolvent_grid(form, vec, 0.0)
    except SolverFailure:
        return None
    return out


def semigroup_apply(form: GraphForm, f, t: float) -> np.ndarray:
    """Apply exp(-t L).  Dense eigendecomposition up to ``DENSE_SEMIGROUP_CUTOFF``
    vertices, Krylov propagation of the symmetrized generator above."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    vec = as_function(form, f)
    act = form.active
    out = np.zeros(form.n)
    if act.size == 0:
        return out
    out[act] = _semigroup_block(form, vec[act, None], t)[:, 0]
    return out


def _semigroup_block(form: GraphForm, F, t: float) -> np.ndarray:
    """exp(-t L) applied to each column of ``F``, an (n_active, k) block of
    values on the non-Dirichlet vertices: V e^{-tw} V^T in the dense
    eigenbasis up to ``DENSE_SEMIGROUP_CUTOFF`` vertices (read at call time),
    Krylov propagation of the symmetrized generator above."""
    d = np.sqrt(form.active_measure)[:, None]
    X = d * F
    if form.n_active <= DENSE_SEMIGROUP_CUTOFF:
        w, V = form._dense_spectral
        Y = V @ (np.exp(-t * w)[:, None] * (V.T @ X))
    else:
        dinv = sp.diags(1.0 / d[:, 0])
        S = dinv @ form.active_form_matrix @ dinv
        Y = spla.expm_multiply((-t) * S.tocsc(), X)
    return Y / d


def default_alpha_schedule(start: float = 1.0, stop: float = 1e-8,
                           ratio: float = 0.5) -> np.ndarray:
    """Geometric shift schedule decreasing from ``start`` to about ``stop``."""
    if not (0 < ratio < 1) or start <= 0 or stop <= 0 or stop > start:
        raise ValueError("need start >= stop > 0 and ratio in (0, 1)")
    n = int(np.floor(np.log(stop / start) / np.log(ratio))) + 1
    return start * ratio ** np.arange(max(n, 2))


@dataclass(frozen=True)
class GreenResult:
    """Outcome of the vanishing-shift limit G f = lim (L + alpha)^(-1) f."""

    status: str                      # "finite" or "diverges"
    value: np.ndarray | None         # the extrapolated limit when finite
    alpha_trace: tuple               # ((alpha, sup_norm), ...) as computed
    detail: str = ""

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def green_apply(form: GraphForm, f, alpha_schedule=None) -> GreenResult:
    """Drive the shift to zero and classify the limit.

    Nonsingular systems are solved exactly at shift zero.  Otherwise the trace
    of resolvents along the schedule is extrapolated (first-order Richardson
    in alpha); the limit counts as finite once consecutive extrapolants agree
    to the table's ``tol_green`` in relative sup norm.  Divergence is declared
    on a sup-norm blowup past ``1e12 * sup|f|`` or a terminal log-log slope
    steeper than -0.9.  Anything else raises ``GreenInconclusive`` with the trace
    attached.
    """
    tol = tolerance("tol_green")
    schedule = default_alpha_schedule() if alpha_schedule is None else np.asarray(alpha_schedule, dtype=float)
    if schedule.size < 2 or np.any(np.diff(schedule) >= 0) or np.any(schedule <= 0):
        raise ValueError("alpha schedule must be positive and strictly decreasing")

    vec = as_function(form, f)
    direct = direct_green_solve(form, vec)
    if direct is not None:
        sup = float(np.max(np.abs(direct))) if direct.size else 0.0
        return GreenResult("finite", direct, ((0.0, sup),),
                           detail="direct solve of the zero-shift system")
    f_sup = float(np.max(np.abs(vec))) if vec.size else 0.0
    blow = DIVERGENCE_FACTOR * max(f_sup, 1e-300)

    trace: list[tuple[float, float]] = []
    prev_u = None
    prev_alpha = None
    prev_extrap = None

    for alpha in schedule:
        u = resolvent_apply(form, vec, float(alpha))
        sup = float(np.max(np.abs(u)))
        trace.append((float(alpha), sup))

        if sup > blow:
            return GreenResult("diverges", None, tuple(trace),
                               detail=f"sup norm {sup:.3e} crossed blowup threshold")

        if prev_u is not None:
            # First-order Richardson: u(alpha) ~ u0 - alpha*C.
            extrap = u + (u - prev_u) * (alpha / (prev_alpha - alpha))
            if prev_extrap is not None:
                diff = float(np.max(np.abs(extrap - prev_extrap)))
                scale = max(float(np.max(np.abs(extrap))), 1e-300)
                if diff <= tol * scale:
                    return GreenResult("finite", extrap, tuple(trace),
                                       detail=f"stabilized at alpha={alpha:.3e}")
            prev_extrap = extrap
        prev_u = u
        prev_alpha = alpha

    tail = trace[-min(5, len(trace)):]
    la = np.log([a for a, _ in tail])
    ln = np.log([max(s, 1e-300) for _, s in tail])
    slope = float(np.polyfit(la, ln, 1)[0]) if len(tail) >= 3 else 0.0
    if slope <= DIVERGENCE_SLOPE:
        return GreenResult("diverges", None, tuple(trace),
                           detail=f"terminal log-log slope {slope:.3f}")
    raise GreenInconclusive(
        f"trace neither stabilized nor diverged (terminal slope {slope:.3f})",
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class ExcessivityReport:
    """Algebraic and resolvent-grid excessivity tests for a nonnegative h."""

    excessive: bool
    algebraic_min: float          # min of L h over the non-Dirichlet part
    grid_max_violation: float     # max over the grid of max(alpha*G_alpha h - h)
    grid_excessive: bool
    agree: bool
    tol_used: float


def _excessivity_gate(form: GraphForm, h, tol_exc: float):
    """Gate L h >= -tol_exc * max(||L|| max(sup h, 1), 1) off the Dirichlet set, h clipped at
    zero (a negative entry beyond rounding raises ``ValueError``); returns h, min L h, verdict."""
    hv = as_domain_function(form, h)
    if np.any(hv < 0):
        floor = float(hv.min())
        if floor < -1e-12 * max(float(np.max(np.abs(hv))), 1.0):
            raise ValueError(f"h must be nonnegative (min {floor:.3e})")
        hv = np.maximum(hv, 0.0)

    h_sup = float(np.max(hv)) if hv.size else 0.0
    scale_L = max(form.operator_norm_bound * max(h_sup, 1.0), 1.0)

    act = form.active
    Lh = (form.active_form_matrix @ hv[act]) / form.measure[act]
    algebraic_min = float(Lh.min()) if Lh.size else 0.0
    return hv, algebraic_min, algebraic_min >= -tol_exc * scale_L


def is_excessive(form: GraphForm, h) -> ExcessivityReport:
    """Test whether h is excessive: the gate L h >= 0 (ground truth), cross-checked
    by alpha * G_alpha h <= h at 9 shifts from 1e-2 to 1e2 times ||L||, both at
    the table's ``tol_exc``."""
    tol_exc = tolerance("tol_exc")
    hv, algebraic_min, alg_ok = _excessivity_gate(form, h, tol_exc)

    # alpha * G_alpha h - h is 0 on the Dirichlet set, which h vanishes on
    alphas = max(form.operator_norm_bound, 1.0) * np.logspace(-2, 2, 9)
    U = _resolvent_grid(form, hv, alphas)
    worst = float(np.max(alphas * U - hv[form.active, None],
                         initial=0.0 if form.n_active < form.n else -np.inf))
    grid_ok = worst <= tol_exc * max(float(np.max(hv, initial=0.0)), 1.0)

    return ExcessivityReport(
        excessive=alg_ok,
        algebraic_min=algebraic_min,
        grid_max_violation=float(worst),
        grid_excessive=grid_ok,
        agree=(alg_ok == grid_ok),
        tol_used=tol_exc,
    )


@dataclass(frozen=True)
class ContractionReport:
    """Energy and defect bounds for the smoothed function alpha * G_alpha f,
    judged once, with slack tol_ineq * max(q_input, 1), when the report is built."""

    q_smoothed: float    # q(alpha * G_alpha f), bounded by q_input
    q_input: float       # q(f)
    defect_energy: float # alpha * ||f - alpha G_alpha f||_mu^2, bounded by q_input
    energy_ok: bool
    defect_ok: bool


def check_resolvent_contraction(form: GraphForm, f, alpha: float) -> ContractionReport:
    """Evaluate both smoothing bounds for the resolvent at shift alpha."""
    vec = as_domain_function(form, f)
    u = alpha * resolvent_apply(form, vec, alpha)
    diff = vec - u
    defect = alpha * float(np.sum(diff * diff * form.measure))
    q_smoothed, q_input = evaluate(form, u), evaluate(form, vec)
    bound = q_input + tolerance("tol_ineq") * max(q_input, 1.0)
    return ContractionReport(
        q_smoothed=q_smoothed,
        q_input=q_input,
        defect_energy=defect,
        energy_ok=q_smoothed <= bound,
        defect_ok=defect <= bound,
    )
