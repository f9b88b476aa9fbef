"""Resolvents, heat semigroup, vanishing-shift limits and excessivity tests."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .config import tolerance
from .errors import GreenInconclusive, SolverFailure
from .forms import GraphForm, as_domain_function, as_function

__all__ = [
    "GreenResult",
    "ExcessivityReport",
    "ContractionReport",
    "resolvent_apply",
    "semigroup_apply",
    "green_apply",
    "direct_green_solve",
    "solve_spd",
    "default_alpha_schedule",
    "is_excessive",
    "check_resolvent_contraction",
]

DENSE_MAX_UNKNOWNS = 100        # dense LAPACK LU for systems this small,
DIRECT_MAX_UNKNOWNS = 2000      # SuperLU for systems this small,
DIRECT_MAX_ROW_NNZ = 3          # and for paths, chains and trees: they factor without fill-in
CG_RTOL = 1e-12                 # relative residual the conjugate gradients aim for
DENSE_SEMIGROUP_CUTOFF = 500    # vertices; above this use Krylov propagation
DIVERGENCE_FACTOR = 1e12        # sup-norm blowup factor declaring divergence
DIVERGENCE_SLOPE = -0.9         # log-log slope of the trace declaring divergence


def _supersolution_proves(Q, s, u, s_abs=None) -> bool:
    """Whether u proves Q + diag(s) >= 0, for a symmetric Q with no positive
    entry off the diagonal (every form matrix here).  For u > 0,
    f^T A f = sum_{x<y} -A_xy u_x u_y (f_x/u_x - f_y/u_y)^2 + sum_x (A u)_x f_x^2/u_x,
    so A u >= 0 proves A >= 0.  The check, in extended precision with unit
    roundoff e (2^-64 for an 80-bit ``np.longdouble``), asks u > 0 and
    A u >= gamma_{k+8} (|Q| u + |s u|) + 2^-50 s_abs u + (k + 8) tiny row by row:
    k is the longest row of Q, gamma_m = m e / (1 - m e), s_abs (default |s|)
    the magnitude of the terms of s before its at most four roundings in
    double precision, and tiny the smallest subnormal.  So a near-critical u
    whose margin is a few ulps of |Q| u still passes.  No factor is formed."""
    if not (np.all(u > 0) and np.all(np.isfinite(u))):
        return False
    ext = np.finfo(np.longdouble)
    k = int(np.diff(Q.indptr).max(initial=0)) + 8
    gamma = k * (ext.eps / 2) / (1 - k * (ext.eps / 2))
    u = u.astype(np.longdouble)
    su = s * u
    bound = (gamma * (abs(Q) @ u + np.abs(su))
             + 2.0 ** -50 * (np.abs(s) if s_abs is None else s_abs) * u
             + k * ext.smallest_subnormal)
    return bool(np.all(Q @ u + su >= bound))


def _witness_rayleigh(Q, mu, s: float, f) -> float:
    """q(f)/|f|^2_mu < -s for an f >= 0 whose energy f^T (Q + s diag(mu)) f, in
    extended precision, lies below -gamma_m (f^T |Q| f + s sum f^2 mu) - m tiny,
    m = n + k + 8 (notation of ``_supersolution_proves``); else ``SolverFailure``."""
    ext = np.finfo(np.longdouble)
    m = Q.shape[0] + int(np.diff(Q.indptr).max(initial=0)) + 8
    gamma = m * (ext.eps / 2) / (1 - m * (ext.eps / 2))
    f = np.asarray(f, dtype=np.longdouble)
    q, q_abs, norm = f @ (Q @ f), f @ (abs(Q) @ f), (f * f) @ mu
    if not q + s * norm < -gamma * (q_abs + s * norm) - m * ext.smallest_subnormal:
        raise SolverFailure("cannot certify the signed form: no supersolution, no negative witness")
    return float(q / norm)


def solve_spd(A, b: np.ndarray, shift=None) -> np.ndarray:
    """Certified solution u of the sparse symmetric positive definite system
    (A + diag(shift)) u = b; ``shift`` defaults to zero.  A (k, n) stack of
    shift diagonals gives the (n, k) block whose column j solves
    (A + diag(shift[j])) u = b, bit for bit as k single-shift calls would.

    Three backends, chosen by size.  Up to 100 unknowns the system is
    densified and solved by LAPACK ``getrf``/``getrs`` (LU with partial
    pivoting, backward stable).  Timed per factorization and solve on fresh
    random trees and graphs, dense LU beats SuperLU's per-call overhead up to
    about 128 unknowns.  SuperLU factors larger systems with at most 2000
    unknowns or at most 3 stored nonzeros per row (paths, chains and trees
    factor without fill-in); otherwise Jacobi-preconditioned conjugate
    gradients run to a relative residual of 1e-12.  Timed per solve, CG wins
    above about 1500 unknowns on 2-D lattices and random sparse graphs and at
    every size on 3-D lattices, where LU fill-in explodes; SuperLU wins on
    smaller systems and on paths, where CG needs n iterations.  Each call
    factors and solves (``_solve``, once per shift), then certifies
    ``||(A + diag(shift)) u - b|| <= 1e3 * tol_solve * ||b||`` for each
    column; no factorization is kept.  ``SolverFailure`` is raised when a
    residual fails, a factorization breaks down or a system has a
    nonpositive diagonal.
    """
    u = _solve(A, b, shift)
    stacked = u.ndim > b.ndim                       # one column per shift
    r = A @ u - (b[:, None] if stacked else b)
    if shift is not None:
        r += (shift.T if stacked else shift) * u
    resid = float(np.linalg.norm(r, axis=0).max() if stacked else np.linalg.norm(r))
    scale = float(np.linalg.norm(b))
    if scale > 0 and resid > 1e3 * tolerance("tol_solve") * scale:
        raise SolverFailure(f"solve residual {resid:.3e} exceeds tolerance (scale {scale:.3e})")
    return u


def _solve(A, b: np.ndarray, shift=None) -> np.ndarray:
    """(A + diag(shift))^-1 b by the backend rule of ``solve_spd`` without its
    residual certificate, for a vector or an (n, k) block b (one factorization;
    CG solves column by column), or a (k, n) stack of shifts and a vector b (A
    densified once, then one factorization per shift).  A u that feeds
    ``_supersolution_proves`` needs no accuracy, and near-critical systems such
    as Q - t W below an optimal Hardy weight leave residuals far above the
    certificate.  A breakdown or a non-finite value raises ``SolverFailure``."""
    n, stacked = A.shape[0], shift is not None and shift.ndim == 2
    if stacked and not 0 < n <= DENSE_MAX_UNKNOWNS:
        u = np.array([_solve(A, b, s) for s in shift]).T
    elif 0 < n <= DENSE_MAX_UNKNOWNS:
        dense = A.toarray()
        if stacked:                                 # one copy of A per shift
            dense = dense[None].repeat(len(shift), axis=0)
        if shift is not None:
            dense.reshape(-1, n * n)[:, ::n + 1] += shift
        u = np.array([_lu_solve(d, b) for d in dense]).T if stacked else _lu_solve(dense, b)
    elif n <= DIRECT_MAX_UNKNOWNS or A.nnz <= DIRECT_MAX_ROW_NNZ * n:
        C = A.tocsc(copy=True)
        if shift is not None:
            C.setdiag(C.diagonal() + shift)
        try:
            lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverFailure(f"sparse factorization failed: {exc}") from None
        with np.errstate(all="ignore"):
            u = lu.solve(b)
    else:
        A = sp.csr_matrix(A)
        diag = A.diagonal() if shift is None else A.diagonal() + shift
        if np.any(diag <= 0):
            raise SolverFailure("system matrix has a nonpositive diagonal entry")
        system = A if shift is None else spla.LinearOperator(
            A.shape, matvec=lambda x: A @ x + shift * x, dtype=float)
        jacobi = spla.LinearOperator(A.shape, matvec=lambda x: x / diag, dtype=float)
        # In exact arithmetic CG ends within n steps; 2n allows for rounding.
        u = np.column_stack([spla.cg(system, col, rtol=CG_RTOL, atol=0.0, M=jacobi,
                                     maxiter=2 * n)[0] for col in b.reshape(n, -1).T])
        u = u.reshape(b.shape)
    if not np.isfinite(u).all():
        raise SolverFailure("solve produced non-finite values")
    return u


def _lu_solve(dense: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dense^-1 b by LAPACK ``getrf``/``getrs``; a zero pivot raises ``SolverFailure``."""
    lu, piv, info = lapack.dgetrf(dense)
    if info:
        raise SolverFailure(f"dense factorization failed (getrf info {info})")
    return lapack.dgetrs(lu, piv, b)[0]


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
    from .forms import evaluate

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
