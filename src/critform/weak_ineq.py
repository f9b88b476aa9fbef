"""Weak spectral-inequality profiles alpha(r), induced semigroup decay rates,
truncation and weighted projection helpers.

The profile certifies, for every r in a grid,

    sum_x f(x)^2 w(x) mu(x)  <=  alpha(r) * q(f)  +  r * sup|f/h|^2

over all admissible f (all of the domain in "hardy" mode; the w-orthogonal
complement of h in "poincare" mode).  ``alpha_cert`` is a sound upper profile,
``alpha_lb`` a witnessed lower profile; the two sandwich the optimal constant.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import tolerance
from .errors import (
    BadConfig,
    BisectionFailure,
    ExcessivityFailure,
    KernelMismatch,
    SolverFailure,
    ViolationFound,
)
from .forms import GraphForm, as_domain_function, as_function, sample_blocks
from .proofs import _supersolution_proves
from .resolvent import _excessivity_gate, _semigroup_block
from .solvers import _solve

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
DECAY_REL_TOL = 1e-8          # relative excess of |T_t f|^2 over its bound that fails verify_decay
XI_REL_WIDTH = 1e-10          # relative width of the bracket at which decay_rate's bisection stops
DECAY_FLAG_MARGIN = 1e-3      # relative margins below this are flagged as tight


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
    sup = (np.abs(X) / h_act).max(axis=1)
    ok = (sup > 0) & np.isfinite(sup)
    return X / np.where(ok, sup, 1.0)[:, None], ok


def _admissible(X: np.ndarray, h_act: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """Rows of X scaled to sup|f/h| = 1 and, in poincare mode, projected onto
    the admissible subspace (the orthogonal complement of a = W h) and scaled
    again, with a mask of the rows that survive both scalings."""
    X, ok = _sup_scaled(X, h_act)
    if a is not None:
        X, kept = _sup_scaled(X - np.outer(X @ a, a / (a @ a)), h_act)
        ok &= kept
    return X, ok


def _ascent(F: np.ndarray, r: np.ndarray, W: np.ndarray, Q: np.ndarray,
            h_act: np.ndarray, a, iters: int) -> tuple[np.ndarray, bool]:
    """Projected-gradient ascent of (sum f^2 W - r) / q(f), one start per row
    of F at the r of that row, all starts in lockstep.

    Each start keeps its own step size and accept test and stops where a
    single-start loop would: at a non-positive energy, a zero gradient, a
    trial that cannot be normalized, or a step below 1e-12.  The products
    f Q, sum f^2 W and q(f) of every start are carried from the trial that
    set them, so an iteration makes one product with Q.  Returns the final
    rows and whether some start still improved at its last iteration.
    """
    F = F.copy()
    QF = F @ Q
    A = (F * F * W).sum(axis=1)
    B = np.einsum("ij,ij->i", F, QF)
    step = np.full(F.shape[0], 0.5)
    val = np.full(F.shape[0], -np.inf)
    at_cap = False
    live = np.arange(F.shape[0])
    W2 = 2.0 * W
    with np.errstate(all="ignore"):
        for it in range(iters):
            f, Qf, Bf, rr = F[live], QF[live], B[live], r[live]
            Ar = A[live] - rr
            cur = Ar / Bf
            grad = (W2 * f * Bf[:, None] - 2.0 * Ar[:, None] * Qf) / (Bf * Bf)[:, None]
            if a is not None:
                grad -= np.outer(grad @ a, a / (a @ a))
            gnorm = np.sqrt((grad * grad).sum(axis=1))
            trial, ok = _admissible(f + step[live, None] * grad / gnorm[:, None], h_act, a)
            ok &= (Bf > 0) & (gnorm != 0)
            Qt = trial @ Q
            A_t = (trial * trial * W).sum(axis=1)
            B_t = np.einsum("ij,ij->i", trial, Qt)
            new = np.where(B_t > 0, (A_t - rr) / B_t, -np.inf)
            acc = ok & (new > cur + 1e-15)
            rej = ok & ~acc
            up, down = live[acc], live[rej]
            if it == iters - 1:
                at_cap = bool(np.any(new[acc] > val[up] * (1 + 1e-9) + 1e-15))
            val[up] = new[acc]
            F[up], QF[up], A[up], B[up] = trial[acc], Qt[acc], A_t[acc], B_t[acc]
            step[up] = np.minimum(step[up] * 1.5, 1e3)
            step[down] *= 0.5
            live = live[acc | (rej & (step[live] >= 1e-12))]
            if live.size == 0:
                break
    return F, at_cap


def _spike_tops(lam: np.ndarray, Z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Top eigenvalue of diag(lam) - rho[j, g] * z_j z_j^T for each spike j
    (row of Z) and each grid point g (column of rho); lam ascending.

    The top is the unique root in [lam[-2], lam[-1]] of the secular equation
    1 - rho * sum_i z_i^2 / (lam_i - mu) = 0.  Each (j, g) keeps a bracket
    that the sign of the computed sum moves, as in bisection; the next point
    is the fixed-weight step of Bunch, Nielsen & Sorensen (Numer. Math. 31,
    1978; LAPACK dlaed4), which keeps the pole at lam[-1] and models the rest
    of the sum by p + q / (lam[-2] - mu), matched in value and slope.  A step
    within k ulps of an end, or back past the end just moved, goes k ulps
    inside that end (k doubles while this repeats); any other step out of the
    bracket bisects.  All (j, g) run at once in row blocks of at most 2^16
    entries until the bracket is two ulps wide, mostly within a handful of
    steps.  Each value is the upper end of its final bracket, so it bounds
    the root from above.  With a single eigenvalue the top is lam - rho z^2;
    when z has no component along the top eigenvector, or the top eigenvalue
    is repeated, it is lam[-1].
    """
    m = lam.size
    z2 = Z * Z
    spike = np.repeat(np.arange(Z.shape[0]), rho.shape[1])
    rho = rho.ravel()
    if m == 1:
        return (lam[0] - rho * z2[spike, 0]).reshape(Z.shape[0], -1)
    eps = np.finfo(float).eps
    a, b = lam[-2], lam[-1]
    gap = b - a
    lo = np.full(rho.size, a)
    hi = np.full(rho.size, b)
    moving = (z2[spike, -1] > 0) & (rho > 0) & (a < b)
    rows = max(1, (1 << 16) // m)
    with np.errstate(all="ignore"):
        for start in range(0, rho.size, rows):
            live = start + np.flatnonzero(moving[start:start + rows])
            x = np.full(live.size, a + 0.5 * gap)
            k = np.ones(live.size)
            # the cap of plain bisection, whose 2*53 halvings shrink any
            # bracket below 2^-106 * lam[-1]
            for _ in range(106):
                if live.size == 0:
                    break
                T = lam - x[:, None]
                np.reciprocal(T, out=T)
                TZ = z2[spike[live]]
                w = TZ[:, -1].copy()
                TZ *= T
                s = TZ.sum(axis=1)
                rho_l = rho[live]
                above = rho_l * s < 1.0
                lo[live[above]] = x[above]
                hi[live[~above]] = x[~above]
                # fixed-weight step: s - w T_m is modelled by p + q / (a - mu),
                # and x is the root of q / (a - x) + w / (b - x) = c in (a, b),
                # taken from the nearer pole with cancellation-free formulas
                t = T[:, -2].copy()
                q = np.einsum("ij,ij->i", TZ[:, :-1], T[:, :-1]) / (t * t)
                c = 1.0 / rho_l - (s - TZ[:, -1] - q * t)
                del T, TZ   # block-sized: free them before the next step makes its own
                B, E = c * gap + q + w, c * gap - q - w
                D = np.sqrt(np.where(c > 0, E * E + 4.0 * c * q * gap, B * B - 4.0 * c * w * gap))
                delta = np.where(B > 0, 2.0 * w * gap / (B + D), (B - D) / (2.0 * c))
                eta = np.where(E > 0, (E + D) / (2.0 * c), 2.0 * q * gap / (D - E))
                x = np.where(eta < delta, a + eta, b - delta)
                # safeguards: never back past the end just moved, k ulps
                # inside an end when within k ulps of it, else the midpoint
                l, h = lo[live], hi[live]
                dl, dh = k * eps * np.abs(l), k * eps * np.abs(h)
                l_in, h_in = l + dl, h - dh
                x = np.where(above, np.maximum(x, l_in), np.minimum(x, h_in))
                x = np.where(np.abs(x - l) <= dl, l_in, np.where(np.abs(x - h) <= dh, h_in, x))
                k = np.where((x == l_in) | (x == h_in), 2.0 * k, 1.0)
                x = np.where((x > l) & (x < h), x, l + 0.5 * (h - l))
                wide = h - l > 2 * eps * np.maximum(np.abs(l), np.abs(h))
                live, x, k = live[wide], x[wide], k[wide]
    return hi.reshape(Z.shape[0], -1)


def _pencil(Q: np.ndarray, W: np.ndarray, a=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the pencil (diag(W), Q) from one Cholesky factor
    Q = L L^T and one eigendecomposition of M0 = L^-1 diag(W) L^-T.  Returns
    the ascending eigenvalues of M0 and the pencil eigenvectors L^-T V as
    columns, normalized to y^T Q y = 1.

    With a = W h, where h spans the kernel of Q, the pencil is restricted to
    the orthogonal complement of a, in full vertex coordinates, by a rank-one
    deflation (Golub, SIAM Review 15, 1973).  The matrix factored is then
    Q + sigma a a^T with sigma = max diag(Q) / |a|^2: it is positive definite
    and equals Q on that complement.  The h pair lies along v = L^-1 a.  M0
    is compressed onto the orthogonal complement of v, which is the
    restricted pencil whatever the rounding in Q h, and v is sent to
    -max diag(M0) (-1 when M0 = 0), strictly below the restricted spectrum
    (>= 0) at the scale of M0.  That lowest pair is dropped.

    A failed factorization, or a pivot below 1e-12 of its diagonal entry
    (the factored matrix is then numerically singular), raises
    KernelMismatch."""
    Q = Q if a is None else Q + (np.max(np.diag(Q)) / (a @ a)) * np.outer(a, a)
    try:
        L = scipy.linalg.cholesky(Q, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise KernelMismatch(
            f"form is not positive definite on the admissible subspace ({exc})"
        ) from None
    if np.any(np.diag(L) ** 2 <= 1e-12 * np.diag(Q)):
        raise KernelMismatch("form is numerically singular on the admissible subspace")
    X = scipy.linalg.solve_triangular(L, np.diag(np.sqrt(W)), lower=True)
    if a is None:
        lam, V = scipy.linalg.eigh(X @ X.T, driver="evd")
        return lam, scipy.linalg.solve_triangular(L, V, lower=True, trans="T")
    v = scipy.linalg.solve_triangular(L, a, lower=True)
    X -= np.outer(v, v @ X / (v @ v))
    M0 = X @ X.T
    M0 -= (np.max(np.diag(M0)) or 1.0) / (v @ v) * np.outer(v, v)
    lam, V = scipy.linalg.eigh(M0, driver="evd")
    return lam[1:], scipy.linalg.solve_triangular(L, V[:, 1:], lower=True, trans="T")


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
    Q = L L^T and one eigendecomposition of M0 = L^-1 diag(w mu) L^-T serve
    them all (in poincare mode Q is factored as Q + sigma a a^T with
    a = w mu h, and M0 is deflated to the orthogonal complement of a by one
    rank-one term, all in full vertex coordinates; see ``_pencil``):
    psi = 0 gives the top of M0, the spread psi
    scales it by (1 - r/S), and a spike is a rank-one downdate of M0 whose top
    is the root of a secular equation.  That root is found by a safeguarded
    fixed-weight iteration (Bunch, Nielsen & Sorensen) inside a bracket moved
    by the sign of the computed secular sum, and the upper end of the final
    bracket is kept, so each spike value bounds its root from above under
    that test.  The lower profile maximizes the ratio over pencil
    eigenvectors, truncated ramps and a budgeted multistart projected-gradient
    search.
    """
    tol_ineq = tolerance("tol_ineq")
    if mode not in ("hardy", "poincare"):
        raise BadConfig(f"mode must be 'hardy' or 'poincare', got {mode!r}")
    act = form.active
    n = act.size
    if n == 0:
        raise BadConfig("form has no non-Dirichlet vertices")
    if n > DENSE_PROFILE_CUTOFF:
        raise SolverFailure(f"profile needs dense algebra; {n} vertices exceed the cutoff")

    mu = form.active_measure
    w_act = np.ones(n) if w is None else as_function(form, w)[act]
    h_act = np.ones(n) if h is None else as_function(form, h)[act]
    if np.any(w_act < 0):
        raise BadConfig("weight w must be nonnegative")
    if np.any(h_act <= 0):
        raise BadConfig("reference h must be strictly positive off the Dirichlet set")

    W = w_act * mu                      # diagonal of the weighted mass form
    S = float(np.sum(W * h_act * h_act))  # scale where alpha hits zero
    if S <= 0:
        raise BadConfig("h must carry positive w-mass")

    Q = form.active_form_matrix.toarray()

    # Admissible subspace: all of it in hardy mode, the complement of a = W h
    # in poincare mode.
    if mode == "poincare":
        Lh = form.active_form_matrix @ h_act
        scale = max(form.operator_norm_bound * float(np.max(h_act)), 1.0)
        if float(np.max(np.abs(Lh / mu))) > tolerance("tol_exc") * scale:
            raise KernelMismatch("h does not span the kernel (L h != 0)")
        if n == 1:
            raise KernelMismatch("orthogonal complement of h is trivial")
        a = W * h_act
    else:
        # a positive supersolution of Q - tau M proves lambda_min >= tau
        tau = 1e-12 * max(form.symmetric_norm_bound, 1.0)
        Q_act = form.active_form_matrix
        try:
            proved = _supersolution_proves(Q_act, -tau * mu, _solve(Q_act, mu, -tau * mu))
        except SolverFailure:                         # a failed solve proves nothing
            proved = False
        if not proved:
            raise KernelMismatch(
                "form has a nontrivial kernel; use mode='poincare' with the kernel h"
            )
        a = None

    lam, Y = _pencil(Q, W, a)
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
    pool, ok = _admissible(np.array(cands), h_act, a)
    pool = pool[ok]

    budget_exhausted = False
    note = ""
    if n <= ASCENT_CUTOFF and budget[0] > 0 and budget[1] > 0:
        targets = r_grid[np.linspace(0, len(r_grid) - 1, min(5, len(r_grid)), dtype=int)]
        per_target = max(1, budget[0] // max(len(targets), 1))
        starts, ok = _admissible(rng.standard_normal((targets.size * per_target, n)), h_act, a)
        ends, budget_exhausted = _ascent(starts[ok], np.repeat(targets, per_target)[ok],
                                         W, Q, h_act, a, budget[1])
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

    slack = tol_ineq * np.maximum(alpha_cert, 1.0)
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


def alpha_profile_levels(exhaustion):
    """Hardy-mode profile of each level of an exhaustion on ``alpha_profile``'s
    default grid, budget and seed; the interesting signal is growth of alpha
    across levels."""
    return [(radius, alpha_profile(exhaustion.level(radius), seed=0))
            for radius in exhaustion.radii]


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayCurve:
    t_grid: np.ndarray
    xi: np.ndarray
    mode: str = "hardy"        # the profile's: "hardy" | "poincare"

    def rows(self):
        return [(float(t), float(x)) for t, x in zip(self.t_grid, self.xi)]


def decay_rate(profile: AlphaProfile, t_grid) -> DecayCurve:
    """Turn an alpha profile into the decay factor
    xi(t) = inf { r > 0 : -(1/2) * alpha(r) * log(r) <= t }.

    alpha is evaluated conservatively between grid points (the left endpoint,
    i.e. the larger value), which keeps every (r, alpha) pair a valid
    certificate; below the grid it is ``alpha_base``, the r-independent
    constant alpha(0) that bounds alpha(r) at every r.  The infimum is located
    by bisection in log r to a relative bracket width of ``XI_REL_WIDTH``, or
    to adjacent floats where the bracket is subnormal.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(t_arr <= 0):
        raise BadConfig("t_grid must be strictly positive")
    r = [0.0] + np.asarray(profile.r_grid, dtype=float).tolist()
    a = [profile.alpha_base] + np.asarray(profile.alpha_cert, dtype=float).tolist()

    if profile.alpha_base <= 0.0:
        return DecayCurve(t_grid=t_arr, xi=np.zeros_like(t_arr), mode=profile.mode)

    def g(x: float) -> float:
        return -0.5 * a[bisect.bisect_right(r, x) - 1] * np.log(x)

    xi = np.empty_like(t_arr)
    for k, t in enumerate(t_arr):
        # below the grid, bisect down from its bottom to the smallest
        # positive double; if even that qualifies it lies above the infimum
        lo, hi = (r[1], 1.0) if g(r[1]) > t else (5e-324, r[1])
        if g(lo) <= t:
            hi = lo
        while hi / lo - 1.0 > XI_REL_WIDTH:
            # the geometric mean as a product of roots: lo * hi underflows
            # to 0 once it falls below the smallest subnormal
            mid = float(np.sqrt(lo) * np.sqrt(hi))
            if not lo < mid < hi:
                break       # adjacent subnormals: no float lies between them
            if g(mid) <= t:
                hi = mid
            else:
                lo = mid
        xi[k] = hi

    order = np.argsort(t_arr)
    if np.any(np.diff(xi[order]) > 1e-12 * np.maximum(xi[order][:-1], 1e-300)):
        raise ViolationFound("xi failed to be nonincreasing in t")
    return DecayCurve(t_grid=t_arr, xi=xi, mode=profile.mode)


@dataclass(frozen=True)
class DecayVerification:
    passed: bool
    min_margin_rel: float        # smallest relative margin (rhs - lhs) / rhs
    tight_points: tuple          # (t, margin) pairs with margin < flag threshold
    n_checks: int
    excessivity_algebraic_min: float


def verify_decay(form: GraphForm, h, curve: DecayCurve, n_samples: int = 100,
                 seed: int = 0) -> DecayVerification:
    """Check |T_t f|_mu^2 <= xi(t) * (|f|_mu^2 + sup|f/h|^2) on random samples.

    Requires h excessive (the semigroup then contracts the h-weighted sup
    norm).  A poincare-mode curve bounds only f mu-orthogonal to h, so its
    samples are projected as plain ``poincare_project`` does and h is not
    checked.  Margins tighter than ``DECAY_FLAG_MARGIN`` are flagged, not
    failed; excesses beyond ``DECAY_REL_TOL`` raise ViolationFound with the witness.
    """
    hv, algebraic_min, excessive = _excessivity_gate(form, h, tolerance("tol_exc"))
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
    a = h_act * mu if curve.mode == "poincare" else None   # samples lose their part along h

    def samples():
        # the seeded draws, then (hardy mode) h itself, one block at a time
        for X in sample_blocks(np.random.default_rng(seed), n_samples, act.size):
            yield X if a is None else X - np.outer(X @ a, h_act / (a @ h_act))
        if a is None:
            yield h_act[None, :]

    t_margin = [np.inf] * len(curve.t_grid)
    worst = [None] * len(curve.t_grid)            # the last violation at each t
    n_checks = 0
    for X in samples():                           # each block is drawn once for every t
        # |f|^2_mu + sup|f/h|^2, the factor of xi(t) in the rhs
        norms = np.sum(X * X * mu, axis=1) + np.max(np.abs(X) / h_act, axis=1) ** 2
        for k, (t, xi_t) in enumerate(zip(curve.t_grid, curve.xi)):
            Y = _semigroup_block(form, X.T, float(t))
            lhs = np.sum(Y * Y * mu[:, None], axis=0)
            rhs = float(xi_t) * norms
            n_checks += X.shape[0]
            pos = rhs > 0
            margins = (rhs[pos] - lhs[pos]) / rhs[pos]
            t_margin[k] = min(t_margin[k], float(np.min(margins, initial=np.inf)))
            bad = np.flatnonzero(np.where(pos, lhs > rhs * (1 + DECAY_REL_TOL), lhs > 0))
            if bad.size:
                i = bad[-1]
                worst[k] = (float(t), X[i].copy(), float(lhs[i]), float(rhs[i]))
    min_margin = min([np.inf, *t_margin])
    tight = [(float(t), m) for t, m in zip(curve.t_grid, t_margin) if m < DECAY_FLAG_MARGIN]
    found = [w for w in worst if w is not None]

    if found:
        t, x, lhs, rhs = found[-1]
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
