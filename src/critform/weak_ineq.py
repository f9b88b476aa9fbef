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
from .resolvent import _semigroup_block, is_excessive

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
REFINE_CUTOFF = 400           # vertices; above this only the flat certificate is used
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


def _normalize_sup(f: np.ndarray, h_act: np.ndarray) -> np.ndarray | None:
    sup = float(np.max(np.abs(f) / h_act)) if f.size else 0.0
    if sup <= 0 or not np.isfinite(sup):
        return None
    return f / sup


def alpha_profile(form: GraphForm, w=None, h=None, r_grid=None, mode: str = "hardy",
                  budget: tuple[int, int] = (50, 200), seed: int = 0) -> AlphaProfile:
    """Sandwich the optimal weak-inequality constant alpha(r) over a grid of r.

    The certificate takes, for each r, the best of a family of reductions: any
    nonnegative psi with sum(psi * h^2) <= 1 satisfies
    sup|f/h|^2 >= sum f^2 psi, so the largest eigenvalue of the pencil
    (diag(w mu - r psi), Q) restricted to the admissible subspace is a valid
    alpha(r).  Candidates: psi = 0, the globally spread psi = w mu / sum(w mu
    h^2), and unit spikes at sampled maximizer locations.  The lower profile
    maximizes the ratio over pencil eigenvectors, truncated ramps and a
    budgeted multistart projected-gradient search.
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
    if form.dirichlet:
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
    else:
        lam_min = scipy.linalg.eigh(Q, np.diag(mu), eigvals_only=True,
                                    subset_by_index=[0, 0])[0]
        if lam_min <= 1e-12 * max(form.operator_norm_bound(), 1.0):
            raise KernelMismatch(
                "form has a nontrivial kernel; use mode='poincare' with the kernel h"
            )
        P = None

    def restrict(mat):
        return mat if P is None else P.T @ mat @ P

    Q_sub = restrict(Q)

    def pencil_top(diag_vals, n_vecs=0):
        A = restrict(np.diag(diag_vals))
        vals, vecs = scipy.linalg.eigh(A, Q_sub)
        if n_vecs:
            take = vecs[:, -n_vecs:]
            back = take if P is None else P @ take
            return float(vals[-1]), back.T
        return float(vals[-1]), None

    alpha_base, top_vecs = pencil_top(W, n_vecs=min(5, Q_sub.shape[0]))
    alpha_base = max(alpha_base, 0.0)

    if r_grid is None:
        r_grid = np.geomspace(S * 1e-12, S * 2.0, 81)
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(np.diff(r_grid) <= 0):
        raise BadConfig("r_grid must be positive and strictly increasing")

    # ---- candidate pool for the lower profile --------------------------------
    rng = np.random.default_rng(seed)
    pool: list[np.ndarray] = []

    def add(f):
        g = _normalize_sup(np.asarray(f, dtype=float), h_act)
        if g is None:
            return
        if P is not None:
            g = P @ (P.T @ g)
            g = _normalize_sup(g, h_act)
            if g is None:
                return
        pool.append(g)

    for v in top_vecs:
        add(v)
        base = _normalize_sup(v, h_act)
        if base is not None:
            for t in (2.0, 5.0, 20.0):
                add(np.clip(t * base, -h_act, h_act))
    if mode == "hardy":
        add(h_act)
    for _ in range(20):
        add(rng.standard_normal(n))

    def ratio_parts(f):
        return float(np.sum(f * f * W)), float(f @ Q @ f)

    # Projected-gradient ascent at a few representative r values.
    budget_exhausted = False
    note = ""
    if n <= ASCENT_CUTOFF and budget[0] > 0 and budget[1] > 0:
        targets = r_grid[np.linspace(0, len(r_grid) - 1, min(5, len(r_grid)), dtype=int)]
        starts_per_target = max(1, budget[0] // max(len(targets), 1))
        for r in targets:
            for _ in range(starts_per_target):
                f = _normalize_sup(rng.standard_normal(n), h_act)
                if f is None:
                    continue
                if P is not None:
                    f = P @ (P.T @ f)
                    f = _normalize_sup(f, h_act)
                    if f is None:
                        continue
                val = -np.inf
                improved_at_cap = False
                step = 0.5
                for it in range(budget[1]):
                    A_f, B_f = float(np.sum(f * f * W)), float(f @ Q @ f)
                    if B_f <= 0:
                        break
                    cur = (A_f - r) / B_f
                    grad = (2.0 * W * f * B_f - (A_f - r) * 2.0 * (Q @ f)) / (B_f * B_f)
                    if P is not None:
                        grad = P @ (P.T @ grad)
                    gnorm = float(np.linalg.norm(grad))
                    if gnorm == 0:
                        break
                    trial = _normalize_sup(f + step * grad / gnorm, h_act)
                    if trial is None:
                        break
                    if P is not None:
                        trial = P @ (P.T @ trial)
                        trial = _normalize_sup(trial, h_act)
                        if trial is None:
                            break
                    A_t, B_t = float(np.sum(trial * trial * W)), float(trial @ Q @ trial)
                    new = (A_t - r) / B_t if B_t > 0 else -np.inf
                    if new > cur + 1e-15:
                        f = trial
                        improved_at_cap = it == budget[1] - 1 and new > val * (1 + 1e-9) + 1e-15
                        val = new
                        step = min(step * 1.5, 1e3)
                    else:
                        step *= 0.5
                        if step < 1e-12:
                            break
                pool.append(f)
                budget_exhausted = budget_exhausted or improved_at_cap
    elif n > ASCENT_CUTOFF:
        note = "gradient search skipped (size); lower profile uses candidates only"

    # ---- vectorized lower profile --------------------------------------------
    A_vals, B_vals = [], []
    for f in pool:
        A_f, B_f = ratio_parts(f)
        if B_f > 1e-300:
            A_vals.append(A_f)
            B_vals.append(B_f)
    if A_vals:
        A_arr = np.array(A_vals)
        B_arr = np.array(B_vals)
        alpha_lb = np.maximum((A_arr[None, :] - r_grid[:, None]) / B_arr[None, :], 0.0).max(axis=1)
    else:
        alpha_lb = np.zeros(len(r_grid))

    # Spike locations harvested from the strongest candidates.
    spike_sites: list[int] = []
    if A_vals:
        order = np.argsort(-(A_arr / B_arr))
        for k in order[:5]:
            site = int(np.argmax(np.abs(pool[k]) / h_act))
            if site not in spike_sites:
                spike_sites.append(site)

    # ---- certificate ----------------------------------------------------------
    psi_list = [None, W / S]  # None encodes psi = 0 (the flat certificate)
    for site in spike_sites:
        spike = np.zeros(n)
        spike[site] = 1.0 / (h_act[site] ** 2)
        psi_list.append(spike)

    if n <= REFINE_CUTOFF:
        alpha_cert = np.empty(len(r_grid))
        for idx, r in enumerate(r_grid):
            best = alpha_base
            for psi in psi_list[1:]:
                val, _ = pencil_top(W - r * psi)
                best = min(best, max(val, 0.0))
            alpha_cert[idx] = best
    else:
        alpha_cert = np.full(len(r_grid), alpha_base)
        note = (note + "; " if note else "") + "per-r refinement skipped (size)"

    alpha_cert = np.minimum.accumulate(alpha_cert)  # sound: a certificate at r is one at r' > r
    alpha_lb = np.minimum(alpha_lb, alpha_cert)     # guard roundoff at the touching points

    slack = tols["tol_ineq"] * np.maximum(alpha_cert, 1.0)
    if np.any(alpha_lb > alpha_cert + slack):
        k = int(np.argmax(alpha_lb - alpha_cert))
        raise ViolationFound(
            f"witnessed ratio {alpha_lb[k]:.6e} exceeds certificate {alpha_cert[k]:.6e} "
            f"at r={r_grid[k]:.3e}"
        )

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
    hv = as_domain_function(form, h)
    exc = is_excessive(form, hv)
    if not exc.excessive:
        raise ExcessivityFailure(
            f"h is not excessive (min generator residual {exc.algebraic_min:.3e})"
        )
    act = form.active
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
        excessivity_algebraic_min=exc.algebraic_min,
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
