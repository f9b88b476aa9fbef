"""The one module that knows the backend rule: certified solves of sparse
symmetric positive definite systems (``solve_spd``) and the same solves
without the certificate (``_solve``), by dense LAPACK LU, SuperLU or
Jacobi-preconditioned conjugate gradients, chosen by size and sparsity."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .config import tolerance
from .errors import SolverFailure

__all__ = ["solve_spd"]

DENSE_MAX_UNKNOWNS = 100        # dense LAPACK LU for systems this small,
DIRECT_MAX_UNKNOWNS = 2000      # SuperLU for systems this small,
DIRECT_MAX_ROW_NNZ = 3          # and for paths, chains and trees: they factor without fill-in
CG_RTOL = 1e-12                 # relative residual the conjugate gradients aim for


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
