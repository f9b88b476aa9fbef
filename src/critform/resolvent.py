"""Resolvents, heat semigroup, vanishing-shift limits and excessivity tests."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .config import tolerances
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

DIRECT_MAX_UNKNOWNS = 2000      # SuperLU for systems this small,
DIRECT_MAX_ROW_NNZ = 3          # and for paths, chains and trees: they factor without fill-in
CG_RTOL = 1e-12                 # relative residual the conjugate gradients aim for
DENSE_SEMIGROUP_CUTOFF = 500    # vertices; above this use Krylov propagation
DIVERGENCE_FACTOR = 1e12        # sup-norm blowup factor declaring divergence
DIVERGENCE_SLOPE = -0.9         # log-log slope of the trace declaring divergence


def _factors(A) -> bool:
    """Backend rule of ``solve_spd``: factor A when it is small or path-,
    chain- or tree-like (no fill-in); conjugate gradients otherwise.  Timed
    per solve, CG wins above about 1500 unknowns on 2-D lattices and random
    sparse graphs and at every size on 3-D lattices; SuperLU wins on smaller
    systems and on paths, where CG needs n iterations.
    """
    n = A.shape[0]
    return n <= DIRECT_MAX_UNKNOWNS or A.nnz <= DIRECT_MAX_ROW_NNZ * n


def _symmetric_lu(A, shift=None):
    """SuperLU factors Pr (A + diag(shift)) Pc = L U of a symmetric A in
    symmetric mode (order on the pattern of A + A^T, diagonal pivots while
    nonzero), the shift added to the stored diagonal of a CSC copy of A.  A
    breakdown or a pivot off the diagonal raises ``SolverFailure``, so that
    L D L^T, D = diag(U), has the inertia of D (Sylvester's law)."""
    C = A.tocsc(copy=True)
    if shift is not None:
        C.setdiag(C.diagonal() + shift)
    try:
        lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailure("a pivot left the diagonal; the inertia is not certified")
    return lu


def _inertia(Q, mu, alpha, theta=0.0, w=0.0):
    """(solve, count, s) for A = Q + alpha M - theta diag(w mu), M = diag(mu):
    solve(b) = A^-1 b, count the pivots <= 0, and A >= -s M when count is 0
    (else s = inf).  ``_symmetric_lu`` factors D A D, D = diag(2^-e) with
    D M D = diag(m), m in [1/2, 2), so s is its ``_rounding_bound`` over min m
    (not min mu, which a spread measure drives to 0) plus 2^-50 max(|alpha| +
    theta |w|), the rounding of the computed shift (alpha - theta w) m."""
    e = np.frexp(mu)[1] // 2
    m = np.ldexp(mu, -2 * e)
    S = Q.copy()
    S.data = np.ldexp(S.data, -e[S.indices] - np.repeat(e, np.diff(S.indptr)))
    lu = _symmetric_lu(S, (alpha - theta * w) * m)
    count = int(np.count_nonzero(lu.U.diagonal() <= 0))
    s = np.inf if count else (_rounding_bound(lu.L, lu.U) / float(m.min())
                              + 2.0 ** -50 * float(np.max(abs(alpha) + theta * np.abs(w))))
    return (lambda b: np.ldexp(lu.solve(np.ldexp(b, -e)), -e)), count, s


def _rounding_bound(L, U) -> float:
    """Bound b >= ||E||_2 on E = L D L^T - Pr A Pc, D = diag(U), for the
    factors of a symmetric A from ``_symmetric_lu``.  With k the longest
    row or column of L, |L U - Pr A Pc| <= gamma_{k+1} |L| |U| (Higham 2002,
    Thm. 9.3, one more rounding for the shift), and E, being symmetric, has
    ||E||_2 <= ||E||_inf <= ||(gamma_{k+1} |L| |U| + |L| |U - D L^T|) 1||_inf."""
    n = U.shape[0]
    L_count = np.diff(L.indptr)
    k1 = (max(L_count.max(), np.bincount(L.indices).max()) + 1) * 2.0 ** -53
    gamma = k1 / (1 - k1)
    L_col = np.repeat(np.arange(n), L_count)
    U_col = np.repeat(np.arange(n), np.diff(U.indptr))
    # U - D L^T entrywise: U(i, j) meets d_i L(j, i) under the key i n + j
    keys = np.concatenate([U.indices.astype(np.int64) * n + U_col, L_col * n + L.indices])
    vals = np.concatenate([U.data, -U.diagonal()[L_col] * L.data])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    deviation = np.abs(np.add.reduceat(vals[order], start))
    v = (gamma * np.bincount(U.indices, weights=np.abs(U.data), minlength=n)
         + np.bincount(keys[start] // n, weights=deviation, minlength=n))
    return float(np.bincount(L.indices, weights=np.abs(L.data) * v[L_col], minlength=n).max())


def solve_spd(A, shift=None) -> Callable[[np.ndarray], np.ndarray]:
    """Certified solver for the sparse symmetric positive definite system
    (A + diag(shift)) u = b; ``shift`` defaults to zero.

    SuperLU factors the system when it has at most 2000 unknowns or at most 3
    stored nonzeros per row; otherwise Jacobi-preconditioned conjugate
    gradients run to a relative residual of 1e-12 (LU fill-in explodes on 3-D
    lattices).  Every solve of the returned function certifies
    ``||(A + diag(shift)) u - b|| <= 1e3 * tol_solve * ||b||`` and raises
    ``SolverFailure`` when the residual fails, the factorization breaks down
    or the system has a nonpositive diagonal.  The function may be kept and
    reused for many b; it keeps A, the shift, ``tol_solve`` as it was when
    built and, for SuperLU, the factors.
    """
    n = A.shape[0]
    limit = 1e3 * tolerances()["tol_solve"]
    if _factors(A):
        lu = _symmetric_lu(A, shift)

        def backend(b):
            with np.errstate(all="ignore"):
                return lu.solve(b)
    else:
        A = sp.csr_matrix(A)
        diag = A.diagonal() if shift is None else A.diagonal() + shift
        if np.any(diag <= 0):
            raise SolverFailure("system matrix has a nonpositive diagonal entry")
        system = A if shift is None else spla.LinearOperator(
            A.shape, matvec=lambda x: A @ x + shift * x, dtype=float)
        jacobi = spla.LinearOperator(A.shape, matvec=lambda x: x / diag, dtype=float)

        def backend(b):
            # In exact arithmetic CG ends within n steps; 2n allows for rounding.
            u, _ = spla.cg(system, b, rtol=CG_RTOL, atol=0.0, M=jacobi, maxiter=2 * n)
            return u

    def solve(b: np.ndarray) -> np.ndarray:
        u = backend(b)
        if not np.all(np.isfinite(u)):
            raise SolverFailure("solve produced non-finite values")
        r = A @ u - b
        if shift is not None:
            r += shift * u
        resid = float(np.linalg.norm(r))
        scale = float(np.linalg.norm(b))
        if scale > 0 and resid > limit * scale:
            raise SolverFailure(f"solve residual {resid:.3e} exceeds tolerance (scale {scale:.3e})")
        return u

    return solve


def _shifted_solve(form: GraphForm, alpha: float, rhs_active: np.ndarray) -> np.ndarray:
    """Solve (Q + alpha*M) u = rhs on the non-Dirichlet part (alpha >= 0).

    SuperLU solvers are cached per shift; a CG solver keeps nothing worth
    the memory and is built afresh."""
    Q = form.active_form_matrix
    if Q.shape[0] == 0:
        return np.zeros(0)
    shift = alpha * form.active_measure if alpha > 0 else None
    if not _factors(Q):
        return solve_spd(Q, shift)(rhs_active)
    solve = form._cached(("spd", float(alpha)), lambda: solve_spd(Q, shift))
    return solve(rhs_active)


def _has_floating_component(form: GraphForm) -> bool:
    """Whether some connected component of the non-Dirichlet subgraph has
    zero potential and no edge to the Dirichlet set.  Constants on such a
    component lie in the kernel of Q, so the zero-shift system is singular."""
    def make():
        i, j = form.edge_index[:, 0], form.edge_index[:, 1]
        boundary = form.boundary_mask
        anchored = form.potential != 0
        anchored[i[boundary[j]]] = True
        anchored[j[boundary[i]]] = True
        _, labels = csgraph.connected_components(form.active_form_matrix, directed=False)
        return bool(np.setdiff1d(labels, labels[anchored[form.active]]).size)
    return form._cached("floating_component", make)


def resolvent_apply(form: GraphForm, f, alpha: float) -> np.ndarray:
    """Apply the resolvent (L + alpha)^(-1) at shift alpha > 0.

    Defined weakly by q(u, g) + alpha <u, g>_mu = <f, g>_mu for all test g; the
    output vanishes on the Dirichlet set and is nonnegative for nonnegative f.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    vec = as_function(form, f)
    act = form.active
    rhs = form.measure[act] * vec[act]
    out = np.zeros(form.n)
    out[act] = _shifted_solve(form, float(alpha), rhs)
    return out


def direct_green_solve(form: GraphForm, f) -> np.ndarray | None:
    """Exact zero-shift solve Q u = M f on the non-Dirichlet part, or None.

    Returns None when the system is singular: at once when a component of
    the non-Dirichlet subgraph floats free of potential and boundary, else
    when the solve fails its residual certificate.  Callers then fall back to
    the shift-schedule limit."""
    vec = as_function(form, f)
    act = form.active
    out = np.zeros(form.n)
    if _has_floating_component(form):
        return None
    try:
        out[act] = _shifted_solve(form, 0.0, form.measure[act] * vec[act])
    except SolverFailure:
        return None
    return out


def _dense_spectral(form: GraphForm):
    def make():
        Q = form.active_form_matrix.toarray()
        d = np.sqrt(form.active_measure)
        S = Q / np.outer(d, d)
        return scipy.linalg.eigh(0.5 * (S + S.T))
    return form._cached("dense_spectral", make)


def semigroup_apply(form: GraphForm, f, t: float,
                    dense_cutoff: int = DENSE_SEMIGROUP_CUTOFF) -> np.ndarray:
    """Apply exp(-t L).  Dense eigendecomposition below ``dense_cutoff`` vertices,
    Krylov propagation of the symmetrized generator above."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    vec = as_function(form, f)
    act = form.active
    out = np.zeros(form.n)
    if act.size == 0:
        return out
    out[act] = _semigroup_block(form, vec[act, None], t, dense_cutoff)[:, 0]
    return out


def _semigroup_block(form: GraphForm, F, t: float,
                     dense_cutoff: int = DENSE_SEMIGROUP_CUTOFF) -> np.ndarray:
    """exp(-t L) applied to each column of ``F``, an (n_active, k) block of
    values on the non-Dirichlet vertices: V e^{-tw} V^T in the dense
    eigenbasis below ``dense_cutoff`` vertices, Krylov propagation of the
    symmetrized generator above."""
    d = np.sqrt(form.active_measure)[:, None]
    X = d * F
    if form.n_active <= dense_cutoff:
        w, V = _dense_spectral(form)
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


def green_apply(form: GraphForm, f, alpha_schedule=None,
                tol_green: float | None = None, try_direct: bool = True) -> GreenResult:
    """Drive the shift to zero and classify the limit.

    Nonsingular systems are solved exactly at shift zero.  Otherwise the trace
    of resolvents along the schedule is extrapolated (first-order Richardson
    in alpha); the limit counts as finite once consecutive extrapolants agree
    to ``tol_green`` in relative sup norm.  Divergence is declared on a
    sup-norm blowup past ``1e12 * sup|f|`` or a terminal log-log slope steeper
    than -0.9.  Anything else raises ``GreenInconclusive`` with the trace
    attached.
    """
    tol = tolerances()["tol_green"] if tol_green is None else float(tol_green)
    schedule = default_alpha_schedule() if alpha_schedule is None else np.asarray(alpha_schedule, dtype=float)
    if schedule.size < 2 or np.any(np.diff(schedule) >= 0) or np.any(schedule <= 0):
        raise ValueError("alpha schedule must be positive and strictly decreasing")

    vec = as_function(form, f)
    if try_direct:
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
    scale_L = max(form.operator_norm_bound() * max(h_sup, 1.0), 1.0)

    act = form.active
    Lh = (form.form_matrix[act] @ hv) / form.measure[act]
    algebraic_min = float(Lh.min()) if Lh.size else 0.0
    return hv, algebraic_min, algebraic_min >= -tol_exc * scale_L


def is_excessive(form: GraphForm, h, tol: float | None = None) -> ExcessivityReport:
    """Test whether h is excessive: the gate L h >= 0 (ground truth), cross-checked
    by alpha * G_alpha h <= h at 9 shifts from 1e-2 to 1e2 times ||L||."""
    tol_exc = tolerances()["tol_exc"] if tol is None else float(tol)
    hv, algebraic_min, alg_ok = _excessivity_gate(form, h, tol_exc)

    worst = -np.inf
    for alpha in max(form.operator_norm_bound(), 1.0) * np.logspace(-2, 2, 9):
        u = resolvent_apply(form, hv, alpha)
        worst = max(worst, float(np.max(alpha * u - hv)))
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
    """Energy and defect bounds for the smoothed function alpha * G_alpha f."""

    q_smoothed: float    # q(alpha * G_alpha f), bounded by q_input
    q_input: float       # q(f)
    defect_energy: float # alpha * ||f - alpha G_alpha f||_mu^2, bounded by q_input

    @property
    def energy_ok(self) -> bool:
        slack = tolerances()["tol_ineq"] * max(self.q_input, 1.0)
        return self.q_smoothed <= self.q_input + slack

    @property
    def defect_ok(self) -> bool:
        slack = tolerances()["tol_ineq"] * max(self.q_input, 1.0)
        return self.defect_energy <= self.q_input + slack


def check_resolvent_contraction(form: GraphForm, f, alpha: float) -> ContractionReport:
    """Evaluate both smoothing bounds for the resolvent at shift alpha."""
    from .forms import evaluate

    vec = as_domain_function(form, f)
    u = alpha * resolvent_apply(form, vec, alpha)
    diff = vec - u
    defect = alpha * float(np.sum(diff * diff * form.measure))
    return ContractionReport(
        q_smoothed=evaluate(form, u),
        q_input=evaluate(form, vec),
        defect_energy=defect,
    )
