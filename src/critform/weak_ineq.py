"""Weak spectral-inequality profiles alpha(r), induced semigroup decay rates,
truncation and weighted projection helpers.

The profile certifies, for every r in a grid,

    sum_x f(x)^2 w(x) mu(x)  <=  alpha(r) * q(f)  +  r * sup|f/h|^2

over all admissible f (all of the domain in "hardy" mode; the w-orthogonal
complement of h in "poincare" mode).  ``alpha_cert`` is a sound upper profile,
``alpha_lb`` a witnessed lower profile; the two sandwich the optimal constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import tolerances
from .errors import (
    BadConfig,
    BisectionFailure,
    ExcessivityFailure,
    GridTooCoarse,
    KernelMismatch,
    SolverFailure,
    ViolationFound,
)
from .forms import GraphForm, as_domain_function, as_function, sample_blocks
from .resolvent import _excessivity_gate, _semigroup_block, _symmetric_lu

__all__ = [
    "AlphaProfile",
    "DecayCurve",
    "DecayVerification",
    "ProjectionResult",
    "alpha_profile",
    "alpha_profile_levels",
    "decay_rate",
    "verify_decay",
    "truncation_map",
    "poincare_project",
]

DENSE_PROFILE_CUTOFF = 2000   # vertices; the profiler is a dense-algebra tool
ASCENT_CUTOFF = 300           # vertices; above this the gradient search is skipped


@dataclass(frozen=True)
class AlphaProfile:
    r_grid: np.ndarray
    alpha_cert: np.ndarray     # sound, nonincreasing upper profile
    alpha_lb: np.ndarray       # witnessed lower profile, <= alpha_cert
    mode: str                  # "hardy" | "poincare"
    alpha_base: float          # flat certificate (r-independent pencil value)
    budget_exhausted: bool
    note: str = ""

    def rows(self):
        return [
            (float(r), float(c), float(l))
            for r, c, l in zip(self.r_grid, self.alpha_cert, self.alpha_lb)
        ]


def _sup_scaled(X: np.ndarray, h_act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of X scaled to sup|f/h| = 1, and a mask of the rows whose sup was
    finite and nonzero (the others are left unscaled)."""
    sup = np.max(np.abs(X) / h_act, axis=1)
    ok = (sup > 0) & np.isfinite(sup)
    return X / np.where(ok, sup, 1.0)[:, None], ok


def _admissible(X: np.ndarray, h_act: np.ndarray, P) -> tuple[np.ndarray, np.ndarray]:
    """Rows of X scaled to sup|f/h| = 1 and, in poincare mode, projected onto
    the admissible subspace (the columns of P) and scaled again, with a mask
    of the rows that survive both scalings."""
    X, ok = _sup_scaled(X, h_act)
    if P is not None:
        X, kept = _sup_scaled((X @ P) @ P.T, h_act)
        ok &= kept
    return X, ok


def _ascent(F: np.ndarray, r: np.ndarray, W: np.ndarray, Q: np.ndarray,
            h_act: np.ndarray, P, iters: int) -> tuple[np.ndarray, bool]:
    """Projected-gradient ascent of (sum f^2 W - r) / q(f), one start per row
    of F at the r of that row, all starts in lockstep.

    Each start keeps its own step size and accept test and stops where a
    single-start loop would: at a non-positive energy, a zero gradient, a
    trial that cannot be normalized, or a step below 1e-12.  Returns the final
    rows and whether some start still improved at its last iteration.
    """
    F = F.copy()
    k = F.shape[0]
    step = np.full(k, 0.5)
    val = np.full(k, -np.inf)
    at_cap = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for it in range(iters):
        f, rr = F[live], r[live]
        Qf = f @ Q
        A = np.sum(f * f * W, axis=1)
        B = np.einsum("ij,ij->i", f, Qf)
        with np.errstate(all="ignore"):
            cur = (A - rr) / B
            grad = (2.0 * W * f * B[:, None] - 2.0 * (A - rr)[:, None] * Qf) / (B * B)[:, None]
            if P is not None:
                grad = (grad @ P) @ P.T
            gnorm = np.linalg.norm(grad, axis=1)
            trial, ok = _admissible(f + step[live, None] * grad / gnorm[:, None], h_act, P)
            ok &= (B > 0) & (gnorm != 0)
            A_t = np.sum(trial * trial * W, axis=1)
            B_t = np.einsum("ij,ij->i", trial, trial @ Q)
            new = np.where(B_t > 0, (A_t - rr) / B_t, -np.inf)
        acc = ok & (new > cur + 1e-15)
        rej = ok & ~acc
        up, down = live[acc], live[rej]
        at_cap[up] = (it == iters - 1) & (new[acc] > val[up] * (1 + 1e-9) + 1e-15)
        val[up] = new[acc]
        F[up] = trial[acc]
        step[up] = np.minimum(step[up] * 1.5, 1e3)
        step[down] *= 0.5
        live = live[acc | (rej & (step[live] >= 1e-12))]
        if live.size == 0:
            break
    return F, bool(np.any(at_cap))


def _spike_tops(lam: np.ndarray, Z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Top eigenvalue of diag(lam) - rho[j, g] * z_j z_j^T for each spike j
    (row of Z) and each grid point g (column of rho); lam ascending.

    The top is the unique root in [lam[-2], lam[-1]] of the secular equation
    1 - rho * sum_i z_i^2 / (lam_i - mu) = 0, found by bisection over all
    (j, g) at once in row blocks of at most 2^16 entries.  Each value is the
    upper end of its final bracket, so it bounds the root from above.  With a
    single eigenvalue the top is lam - rho z^2; when z has no component along
    the top eigenvector, or the top eigenvalue is repeated, it is lam[-1].
    """
    m = lam.size
    z2 = Z * Z
    spike = np.repeat(np.arange(Z.shape[0]), rho.shape[1])
    rho = rho.ravel()
    if m == 1:
        return (lam[0] - rho * z2[spike, 0]).reshape(Z.shape[0], -1)
    eps = np.finfo(float).eps
    lo = np.full(rho.size, lam[-2])
    hi = np.full(rho.size, lam[-1])
    moving = (z2[spike, -1] > 0) & (rho > 0) & (lam[-2] < lam[-1])
    rows = max(1, (1 << 16) // m)
    for start in range(0, rho.size, rows):
        live = start + np.flatnonzero(moving[start:start + rows])
        # 2*53 halvings shrink any bracket below 2^-106 * lam[-1]; most rows
        # stop earlier, at a width of two ulps of the root
        for _ in range(106):
            if live.size == 0:
                break
            mid = lo[live] + 0.5 * (hi[live] - lo[live])
            T = lam - mid[:, None]
            np.reciprocal(T, out=T)
            s = (T @ z2.T)[np.arange(live.size), spike[live]]
            above = rho[live] * s < 1.0
            lo[live[above]] = mid[above]
            hi[live[~above]] = mid[~above]
            wide = hi[live] - lo[live] > 2 * eps * np.maximum(np.abs(lo[live]), np.abs(hi[live]))
            live = live[wide]
    return hi.reshape(Z.shape[0], -1)


def _pencil(Q_sub: np.ndarray, W: np.ndarray, P) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the pencil (P^T diag(W) P, Q_sub) from one Cholesky factor
    Q_sub = L L^T and one eigendecomposition of M0 = L^-1 P^T diag(W) P L^-T
    (P = identity when None).  Returns the ascending eigenvalues of M0 and the
    pencil eigenvectors P L^-T V as columns, normalized to y^T Q y = 1.

    A failed factorization, or a pivot below 1e-12 of its diagonal entry
    (Q_sub is then numerically singular), raises KernelMismatch."""
    try:
        L = scipy.linalg.cholesky(Q_sub, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise KernelMismatch(
            f"form is not positive definite on the admissible subspace ({exc})"
        ) from None
    if np.any(np.diag(L) ** 2 <= 1e-12 * np.diag(Q_sub)):
        raise KernelMismatch("form is numerically singular on the admissible subspace")
    sqrt_W = np.sqrt(W)
    X = scipy.linalg.solve_triangular(L, np.diag(sqrt_W) if P is None else P.T * sqrt_W,
                                      lower=True)
    lam, V = scipy.linalg.eigh(X @ X.T, driver="evd")
    Y = scipy.linalg.solve_triangular(L, V, lower=True, trans="T")
    return lam, (Y if P is None else P @ Y)


def _certificate(lam: np.ndarray, Y: np.ndarray, h_act: np.ndarray, S: float,
                 sites: list[int], r_grid: np.ndarray) -> np.ndarray:
    """Best pencil top over the candidates psi = 0, psi = W/S and a unit spike
    at each site, clamped at 0, for every r (not yet made monotone).

    psi = 0 gives lam[-1] and psi = W/S scales the pencil by 1 - r/S; a spike
    at s is the rank-one downdate of M0 by (r / h_s^2) z z^T with z = Y[s]."""
    alpha_base = max(float(lam[-1]), 0.0)
    cert = np.maximum(1.0 - r_grid / S, 0.0) * alpha_base
    if sites:
        rho = r_grid[None, :] / h_act[sites, None] ** 2
        cert = np.minimum(cert, np.maximum(_spike_tops(lam, Y[sites], rho), 0.0).min(axis=0))
    return cert


def alpha_profile(form: GraphForm, w=None, h=None, r_grid=None, mode: str = "hardy",
                  budget: tuple[int, int] = (50, 200), seed: int = 0) -> AlphaProfile:
    """Sandwich the optimal weak-inequality constant alpha(r) over a grid of r.

    The certificate takes, for each r, the best of a family of reductions: any
    nonnegative psi with sum(psi * h^2) <= 1 satisfies
    sup|f/h|^2 >= sum f^2 psi, so the largest eigenvalue of the pencil
    (diag(w mu - r psi), Q) restricted to the admissible subspace is a valid
    alpha(r).  Candidates: psi = 0, the globally spread psi = w mu / sum(w mu
    h^2), and unit spikes at sampled maximizer locations.  One Cholesky factor
    Q_sub = L L^T and one eigendecomposition of M0 = L^-1 diag(w mu) L^-T
    (restricted) serve them all: psi = 0 gives the top of M0, the spread psi
    scales it by (1 - r/S), and a spike is a rank-one downdate of M0 whose top
    solves a secular equation.  The lower profile maximizes the ratio over
    pencil eigenvectors, truncated ramps and a budgeted multistart
    projected-gradient search.
    """
    tols = tolerances()
    if mode not in ("hardy", "poincare"):
        raise BadConfig(f"mode must be 'hardy' or 'poincare', got {mode!r}")
    act = form.active
    n = act.size
    if n == 0:
        raise BadConfig("form has no non-Dirichlet vertices")
    if n > DENSE_PROFILE_CUTOFF:
        raise SolverFailure(f"profile needs dense algebra; {n} vertices exceed the cutoff")

    mu = form.active_measure
    wv = np.ones(form.n) if w is None else np.asarray(as_function(form, w), dtype=float).copy()
    hv = np.ones(form.n) if h is None else np.asarray(as_function(form, h), dtype=float).copy()
    wv[form.boundary_mask] = 0.0
    hv[form.boundary_mask] = 0.0
    if np.any(wv[act] < 0):
        raise BadConfig("weight w must be nonnegative")
    if np.any(hv[act] <= 0):
        raise BadConfig("reference h must be strictly positive off the Dirichlet set")

    w_act = wv[act]
    h_act = hv[act]
    W = w_act * mu                      # diagonal of the weighted mass form
    S = float(np.sum(W * h_act * h_act))  # scale where alpha hits zero
    if S <= 0:
        raise BadConfig("h must carry positive w-mass")

    Q = form.active_form_matrix.toarray()
    Q = 0.5 * (Q + Q.T)

    # Admissible subspace.
    if mode == "poincare":
        hfull = np.zeros(form.n)
        hfull[act] = h_act
        Lh = form.form_matrix[act] @ hfull
        scale = max(form.operator_norm_bound() * float(np.max(h_act)), 1.0)
        if float(np.max(np.abs(Lh / mu))) > 1e-8 * scale:
            raise KernelMismatch("h does not span the kernel (L h != 0)")
        a = W * h_act
        P = scipy.linalg.null_space(a[None, :])
        if P.shape[1] == 0:
            raise KernelMismatch("orthogonal complement of h is trivial")
        Q_sub = P.T @ Q @ P
    else:
        # inertia: Q - tau M has a nonpositive pivot iff lambda_min <= tau
        tau = 1e-12 * max(form.operator_norm_bound(), 1.0)
        U = _symmetric_lu(form.active_form_matrix, -tau * mu).U
        if np.any(U.diagonal() <= 0):
            raise KernelMismatch(
                "form has a nontrivial kernel; use mode='poincare' with the kernel h"
            )
        P = None
        Q_sub = Q

    lam, Y = _pencil(Q_sub, W, P)
    alpha_base = max(float(lam[-1]), 0.0)

    if r_grid is None:
        r_grid = np.geomspace(S * 1e-12, S * 2.0, 81)
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(np.diff(r_grid) <= 0):
        raise BadConfig("r_grid must be positive and strictly increasing")

    # ---- candidate pool for the lower profile --------------------------------
    rng = np.random.default_rng(seed)
    top_vecs = Y[:, -min(5, lam.size):].T
    bases, based = _sup_scaled(top_vecs, h_act)
    cands = []
    for v, base, ok in zip(top_vecs, bases, based):
        cands.append(v)
        if ok:
            cands.extend(np.clip(t * base, -h_act, h_act) for t in (2.0, 5.0, 20.0))
    if mode == "hardy":
        cands.append(h_act)
    cands.extend(rng.standard_normal((20, n)))
    pool, ok = _admissible(np.array(cands), h_act, P)
    pool = pool[ok]

    budget_exhausted = False
    note = ""
    if n <= ASCENT_CUTOFF and budget[0] > 0 and budget[1] > 0:
        targets = r_grid[np.linspace(0, len(r_grid) - 1, min(5, len(r_grid)), dtype=int)]
        per_target = max(1, budget[0] // max(len(targets), 1))
        starts, ok = _admissible(rng.standard_normal((targets.size * per_target, n)), h_act, P)
        ends, budget_exhausted = _ascent(starts[ok], np.repeat(targets, per_target)[ok],
                                         W, Q, h_act, P, budget[1])
        pool = np.vstack([pool, ends])
    elif n > ASCENT_CUTOFF:
        note = "gradient search skipped (size); lower profile uses candidates only"

    # ---- vectorized lower profile --------------------------------------------
    A_arr = np.sum(pool * pool * W, axis=1)
    B_arr = np.einsum("ij,ij->i", pool, pool @ Q)
    keep = B_arr > 1e-300
    pool, A_arr, B_arr = pool[keep], A_arr[keep], B_arr[keep]
    alpha_lb = np.maximum((A_arr[None, :] - r_grid[:, None]) / B_arr[None, :],
                          0.0).max(axis=1, initial=0.0)

    # Spike locations harvested from the strongest candidates.
    best = np.argsort(-(A_arr / B_arr))[:5]
    sites = list(dict.fromkeys(np.argmax(np.abs(pool[best]) / h_act, axis=1).tolist()))

    # ---- certificate ----------------------------------------------------------
    alpha_cert = _certificate(lam, Y, h_act, S, sites, r_grid)
    alpha_cert = np.minimum.accumulate(alpha_cert)  # sound: a certificate at r is one at r' > r

    slack = tols["tol_ineq"] * np.maximum(alpha_cert, 1.0)
    if np.any(alpha_lb > alpha_cert + slack):
        k = int(np.argmax(alpha_lb - alpha_cert))
        raise ViolationFound(
            f"witnessed ratio {alpha_lb[k]:.6e} exceeds certificate {alpha_cert[k]:.6e} "
            f"at r={r_grid[k]:.3e}"
        )
    alpha_lb = np.minimum(alpha_lb, alpha_cert)     # guard roundoff at the touching points

    return AlphaProfile(
        r_grid=r_grid,
        alpha_cert=alpha_cert,
        alpha_lb=alpha_lb,
        mode=mode,
        alpha_base=alpha_base,
        budget_exhausted=budget_exhausted,
        note=note,
    )


def alpha_profile_levels(exhaustion, r_grid=None, mode: str = "hardy",
                         budget: tuple[int, int] = (50, 200), seed: int = 0):
    """Profile each level of an exhaustion; the interesting signal is growth
    of alpha across levels."""
    out = []
    for radius in exhaustion.radii:
        level = exhaustion.level(radius)
        out.append((radius, alpha_profile(level, r_grid=r_grid, mode=mode,
                                          budget=budget, seed=seed)))
    return out


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayCurve:
    t_grid: np.ndarray
    xi: np.ndarray
    rel_tol: float

    def rows(self):
        return [(float(t), float(x)) for t, x in zip(self.t_grid, self.xi)]


def decay_rate(profile: AlphaProfile, t_grid, rel_tol: float = 1e-10) -> DecayCurve:
    """Turn an alpha profile into the decay factor
    xi(t) = inf { r > 0 : -(1/2) * alpha(r) * log(r) <= t }.

    alpha is evaluated conservatively between grid points (the left endpoint,
    i.e. the larger value), which keeps every (r, alpha) pair a valid
    certificate; the infimum is located by bisection in log r.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(t_arr <= 0):
        raise BadConfig("t_grid must be strictly positive")
    r = np.asarray(profile.r_grid, dtype=float)
    a = np.asarray(profile.alpha_cert, dtype=float)

    if profile.alpha_base <= 0.0:
        return DecayCurve(t_grid=t_arr, xi=np.zeros_like(t_arr), rel_tol=rel_tol)

    def alpha_at(x: float) -> float:
        if x < r[0]:
            raise GridTooCoarse(
                f"alpha is unknown below r={r[0]:.3e}; extend the r grid downward"
            )
        idx = int(np.searchsorted(r, x, side="right")) - 1
        return float(a[idx])

    def g(x: float) -> float:
        return -0.5 * alpha_at(x) * np.log(x)

    xi = np.empty_like(t_arr)
    for k, t in enumerate(t_arr):
        if g(r[0]) <= t:
            raise GridTooCoarse(
                f"target xi({t}) lies at or below the bottom of the r grid "
                f"(r_min={r[0]:.3e}); extend the grid downward"
            )
        lo = r[0]
        hi = 1.0
        if g(hi) > t:  # cannot happen: log(1) = 0
            raise GridTooCoarse("no admissible r located at or below 1")
        while hi / lo - 1.0 > rel_tol:
            mid = float(np.sqrt(lo * hi))
            if g(mid) <= t:
                hi = mid
            else:
                lo = mid
        xi[k] = hi

    order = np.argsort(t_arr)
    if np.any(np.diff(xi[order]) > 1e-12 * np.maximum(xi[order][:-1], 1e-300)):
        raise ViolationFound("xi failed to be nonincreasing in t")
    return DecayCurve(t_grid=t_arr, xi=xi, rel_tol=rel_tol)


@dataclass(frozen=True)
class DecayVerification:
    passed: bool
    min_margin_rel: float        # smallest relative margin (rhs - lhs) / rhs
    tight_points: tuple          # (t, margin) pairs with margin < flag threshold
    n_checks: int
    excessivity_algebraic_min: float


def verify_decay(form: GraphForm, h, curve: DecayCurve, n_samples: int = 100,
                 seed: int = 0, tol_rel: float = 1e-8,
                 flag_margin: float = 1e-3) -> DecayVerification:
    """Check |T_t f|_mu^2 <= xi(t) * (|f|_mu^2 + sup|f/h|^2) on random samples.

    Requires h excessive (the semigroup then contracts the h-weighted sup
    norm).  Margins tighter than ``flag_margin`` are flagged, not failed;
    genuine violations raise ViolationFound with the witness.
    """
    hv, algebraic_min, excessive = _excessivity_gate(form, h, tolerances()["tol_exc"])
    act = form.active
    if act.size == 0:
        raise BadConfig("form has no non-Dirichlet vertices")
    if not excessive:
        raise ExcessivityFailure(
            f"h is not excessive (min generator residual {algebraic_min:.3e})"
        )
    h_act = hv[act]
    if np.any(h_act <= 0):
        raise ExcessivityFailure("h must be strictly positive off the Dirichlet set")
    mu = form.active_measure

    def samples():
        # the same seeded draws at every t, then h itself, one block at a time
        yield from sample_blocks(np.random.default_rng(seed), n_samples, act.size)
        yield h_act[None, :]

    min_margin = np.inf
    tight = []
    worst = None
    n_checks = 0
    for t, xi_t in zip(curve.t_grid, curve.xi):
        t_margin = np.inf
        for X in samples():
            Y = _semigroup_block(form, X.T, float(t))
            lhs = np.sum(Y * Y * mu[:, None], axis=0)
            rhs = float(xi_t) * (np.sum(X * X * mu, axis=1)
                                 + np.max(np.abs(X) / h_act, axis=1) ** 2)
            n_checks += X.shape[0]
            pos = rhs > 0
            margins = (rhs[pos] - lhs[pos]) / rhs[pos]
            t_margin = min(t_margin, float(np.min(margins, initial=np.inf)))
            bad = np.flatnonzero(np.where(pos, lhs > rhs * (1 + tol_rel), lhs > 0))
            if bad.size:
                worst = (float(t), X[bad[-1]].copy(), float(lhs[bad[-1]]), float(rhs[bad[-1]]))
        min_margin = min(min_margin, t_margin)
        if worst is None and t_margin < flag_margin:
            tight.append((float(t), float(t_margin)))

    if worst is not None:
        t, x, lhs, rhs = worst
        raise ViolationFound(
            f"decay bound violated at t={t}: lhs={lhs:.6e} > rhs={rhs:.6e}",
            witness={"t": t, "f": x, "lhs": lhs, "rhs": rhs},
        )
    return DecayVerification(
        passed=True,
        min_margin_rel=float(min_margin),
        tight_points=tuple(tight),
        n_checks=n_checks,
        excessivity_algebraic_min=algebraic_min,
    )


# ---------------------------------------------------------------------------
# truncation and projection
# ---------------------------------------------------------------------------

def truncation_map(f, h) -> np.ndarray:
    """Clamp f into the band [-h, h].  Idempotent, 1-Lipschitz in sup norm,
    and |result| = min(|f|, h) pointwise."""
    fv = np.asarray(f, dtype=float)
    hv = np.asarray(h, dtype=float)
    if fv.shape != hv.shape:
        raise BadConfig(f"shape mismatch: {fv.shape} vs {hv.shape}")
    if np.any(hv < 0):
        raise BadConfig("band h must be nonnegative")
    return np.clip(fv, -hv, hv)


@dataclass(frozen=True)
class ProjectionResult:
    constant: float
    projected: np.ndarray
    residual: float       # w-inner product of the (truncated) projection with h
    mode: str             # "plain" | "truncated"


def poincare_project(form: GraphForm, f, h, w=None,
                     truncated: bool = False) -> ProjectionResult:
    """Remove the h-component of f in the w-weighted inner product.

    Plain mode subtracts the orthogonal projection coefficient; truncated mode
    finds, by bisection, the constant C making the clamped difference
    trunc(f - C h) exactly w-orthogonal to h.
    """
    fv = as_domain_function(form, f)
    hv = as_domain_function(form, h)
    wv = np.ones(form.n) if w is None else np.asarray(as_function(form, w), dtype=float)
    act = form.active
    h_act = hv[act]
    if np.any(h_act <= 0):
        raise BadConfig("h must be strictly positive off the Dirichlet set")
    weight = wv[act] * form.active_measure
    S = float(np.sum(h_act * h_act * weight))
    if S <= 0:
        raise BadConfig("h must carry positive w-mass")

    if not truncated:
        c = float(np.sum(fv[act] * h_act * weight) / S)
        projected = fv - c * hv
        resid = float(np.sum(projected[act] * h_act * weight))
        return ProjectionResult(constant=c, projected=projected, residual=resid, mode="plain")

    bound = float(np.max(np.abs(fv[act]) / h_act)) + 1.0

    def inner(c: float) -> float:
        clipped = np.clip(fv[act] - c * h_act, -h_act, h_act)
        return float(np.sum(clipped * h_act * weight))

    lo, hi = -bound, bound
    flo, fhi = inner(lo), inner(hi)
    if not (flo >= 0 >= fhi):
        raise BisectionFailure(
            f"bracket [{lo}, {hi}] does not straddle the root: ({flo:.3e}, {fhi:.3e})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inner(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    c = 0.5 * (lo + hi)
    resid = inner(c)
    if abs(resid) > 1e-9 * S:
        raise BisectionFailure(f"projection residual {resid:.3e} did not vanish")
    projected = np.zeros(form.n)
    projected[act] = np.clip(fv[act] - c * h_act, -h_act, h_act)
    return ProjectionResult(constant=c, projected=projected, residual=resid, mode="truncated")
