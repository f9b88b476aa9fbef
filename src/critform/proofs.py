"""The proof rules behind every "proved" that critform reports: a-posteriori
checks of a candidate, with rounding bounds in extended precision.  None of
them solves or factors, so a claim re-checks from its witness alone."""
from __future__ import annotations

import numpy as np

from .errors import SolverFailure


def _sum_of_squares_proves(c, s) -> bool:
    """Whether q - sum s f^2 mu, q of potential c, is a sum of squares: c - s >=
    2^-50 (|c| + s) at every vertex covers the rounding of c and s; s = 0 asks c >= 0."""
    return bool(np.all(c - s >= 2.0 ** -50 * (np.abs(c) + s)))


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
