"""Positivity-preserving kernel operators on finite L^p spaces: principal
value lambda(T), weak Harnack certificates, ergodicity probes, and the
liminf construction of excessive functions for graph forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.csgraph as csgraph

from .config import tolerances
from .errors import (
    BadConfig,
    DomainMismatch,
    EmptySelection,
    NoConvergence,
    NonPositiveInput,
    NotIrreducible,
    NoViolationFound,
    ScheduleTooShort,
)
from .forms import GraphForm, VertexFunction, as_function, is_irreducible
from .resolvent import (
    DENSE_SEMIGROUP_CUTOFF,
    _excessivity_gate,
    _semigroup_block,
    default_alpha_schedule,
    resolvent_apply,
    semigroup_apply,
)

__all__ = [
    "KernelOperator",
    "HarnackCertificate",
    "ExcessiveConstruction",
    "ErgodicityReport",
    "lambda_of",
    "check_super_eigen",
    "ktilde",
    "harnack_sets",
    "construct_excessive",
    "ergodicity_check",
    "heat_kernel_operator",
]

MAX_POWER_ITERS = 20_000
MAX_FIXED_POINT_ITERS = 5_000


@dataclass(frozen=True)
class KernelOperator:
    """T f(z) = sum_x k(z, x) f(x) mu(x), mapping source functions (measure mu)
    to target functions (measure nu).  All kernel entries strictly positive."""

    kernel: np.ndarray      # shape (n_target, n_source)
    mu: np.ndarray          # source measure, strictly positive
    nu: np.ndarray          # target measure, strictly positive
    p: float = 2.0

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        mu = np.asarray(self.mu, dtype=float).ravel()
        nu = np.asarray(self.nu, dtype=float).ravel()
        if k.ndim != 2 or k.shape != (nu.size, mu.size):
            raise BadConfig(
                f"kernel shape {k.shape} does not match (target={nu.size}, source={mu.size})"
            )
        if not np.all(k > 0):
            raise NonPositiveInput("kernel entries must be strictly positive")
        if not np.all(mu > 0) or not np.all(nu > 0):
            raise NonPositiveInput("measures must be strictly positive")
        if not (1.0 < self.p < np.inf):
            raise BadConfig(f"p must lie in (1, infinity), got {self.p}")
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def n_source(self) -> int:
        return self.mu.size

    @property
    def n_target(self) -> int:
        return self.nu.size

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.kernel @ (np.asarray(f, dtype=float) * self.mu)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        return self.kernel.T @ (np.asarray(g, dtype=float) * self.nu)

    def star_t_power(self, f: np.ndarray) -> np.ndarray:
        """T*( (T f)^{p-1} ) for nonnegative f — the nonlinear Perron map."""
        tf = self.apply(f)
        return self.adjoint(np.power(tf, self.p - 1.0))


def ktilde(op: KernelOperator) -> np.ndarray:
    """Symmetric source-space kernel ktilde(x, y) = sum_z k(z,x) k(z,y) nu(z).

    T*T f(x) = sum_y ktilde(x, y) f(y) mu(y)."""
    weighted = op.kernel * op.nu[:, None]
    out = op.kernel.T @ weighted
    return 0.5 * (out + out.T)


def lambda_of(op: KernelOperator, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Principal value lambda(T) with a strictly positive witness f satisfying
    T*(Tf)^{p-1} <= lambda f^{p-1} componentwise.

    p = 2: power iteration on the symmetrized T*T with Collatz–Wielandt
    bracketing (lambda = the certified upper ratio).  General p: the damped
    fixed-point iteration f <- normalize((T*(Tf)^{p-1})^{1/(p-1)}), stopping
    when the componentwise ratio spread falls below 1 + tol.
    """
    if op.p == 2.0:
        kt = ktilde(op)
        d = np.sqrt(op.mu)
        S = kt * d[None, :] * d[:, None]     # symmetric, strictly positive
        v = d / np.linalg.norm(d)            # positive start: Perron direction wins
        lam_hi = np.inf
        for _ in range(MAX_POWER_ITERS):
            w = S @ v
            ratios = w / v
            lo, hi = float(np.min(ratios)), float(np.max(ratios))
            lam_hi = hi
            if hi - lo <= tol * max(hi, 1e-300):
                f = (v / d)
                return hi, f / np.max(f)
            v = w / np.linalg.norm(w)
        err = NoConvergence(
            f"power iteration did not tighten the Collatz–Wielandt bracket "
            f"below tol; best bracket [{lo:.12e}, {hi:.12e}]"
        )
        err.bracket = (lo, lam_hi)
        raise err

    pm1 = op.p - 1.0
    f = np.ones(op.n_source)
    lo = hi = np.nan
    for _ in range(MAX_FIXED_POINT_ITERS):
        sf = op.star_t_power(f)
        ratios = sf / np.power(f, pm1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi / lo < 1.0 + tol:
            return hi, f / np.max(f)
        nxt = np.power(sf, 1.0 / pm1)
        f = np.sqrt(f * (nxt / np.max(nxt)))   # 0.5 damping in log coordinates
        f = f / np.max(f)
    err = NoConvergence(
        f"fixed-point ratio spread stalled at [{lo:.12e}, {hi:.12e}] "
        f"(spread {hi / lo - 1:.3e} > tol {tol:.3e})"
    )
    err.bracket = (lo, hi)
    raise err


def check_super_eigen(op: KernelOperator, lam: float, f) -> float:
    """Max componentwise excess of T*(Tf)^{p-1} over lam * f^{p-1}.

    Nonpositive (within tol) certifies the super-eigen pair."""
    fv = np.asarray(f, dtype=float)
    if np.any(fv <= 0):
        raise NonPositiveInput("witness f must be strictly positive")
    return float(np.max(op.star_t_power(fv) - lam * np.power(fv, op.p - 1.0)))


@dataclass(frozen=True)
class HarnackCertificate:
    members: tuple          # source-point indices forming the set A
    c: float                # ktilde >= c on A x A
    D: float                # Harnack constant lambda / c
    lam: float              # the level used
    mass_fraction: float    # mu(A) / mu(X)


def harnack_sets(op: KernelOperator, target_mass: float, lam: float) -> HarnackCertificate:
    """Greedy Harnack set: drop the vertex attaining the current min of ktilde
    on A x A while the mass constraint mu(A) >= target_mass * mu(X) permits,
    then certify c = min ktilde and D = lam / c."""
    if not (0 < target_mass <= 1):
        raise BadConfig(f"target_mass must lie in (0, 1], got {target_mass}")
    if lam <= 0:
        raise BadConfig(f"lambda level must be positive, got {lam}")
    kt = ktilde(op)
    total = float(np.sum(op.mu))
    alive = list(range(op.n_source))
    if not alive:
        raise EmptySelection("kernel operator has no source points")

    def current_min(members):
        sub = kt[np.ix_(members, members)]
        flat = int(np.argmin(sub))
        i, j = divmod(flat, len(members))
        return float(sub[i, j]), members[i], members[j]

    while True:
        cmin, vi, vj = current_min(alive)
        if len(alive) == 1:
            break
        # remove whichever endpoint has the smaller row-minimum over A
        row_i = float(np.min(kt[vi, alive]))
        row_j = float(np.min(kt[vj, alive]))
        drop = vi if (row_i < row_j or (row_i == row_j and vi <= vj)) else vj
        rest = [v for v in alive if v != drop]
        if float(np.sum(op.mu[rest])) < target_mass * total:
            break
        alive = rest

    if not alive:
        raise EmptySelection("greedy selection emptied the candidate set")
    cmin, _, _ = current_min(alive)
    return HarnackCertificate(
        members=tuple(alive),
        c=cmin,
        D=lam / cmin,
        lam=lam,
        mass_fraction=float(np.sum(op.mu[alive]) / total),
    )


def heat_kernel_operator(form: GraphForm, t: float = 1.0, p: float = 2.0) -> KernelOperator:
    """Kernel operator of the form's semigroup at time t, restricted to the
    non-Dirichlet vertices: k(z, x) = T_t(z, x) / mu(x)."""
    n = form.n_active
    if n > DENSE_SEMIGROUP_CUTOFF:
        raise BadConfig(f"heat kernel extraction needs a dense semigroup ({n} vertices)")
    mu = form.active_measure
    kernel = _semigroup_block(form, np.eye(n), t) / mu[None, :]
    if np.any(kernel <= 0):
        if not _active_block_connected(form):
            raise NonPositiveInput(
                "heat kernel has structural zeros (the non-Dirichlet vertices "
                "are not connected); pass an explicit reference set instead"
            )
        # The semigroup of a connected block is strictly positive, so entries
        # that come out <= 0 are matrix-exponential rounding noise on values
        # far below working precision.  Floor them at the smallest genuinely
        # positive entry: still negligible relative to the bulk, but safe to
        # divide by.
        positive = kernel[kernel > 0]
        if positive.size == 0:
            raise NonPositiveInput("heat kernel vanished entirely")
        kernel = np.maximum(kernel, float(positive.min()))
    return KernelOperator(kernel=kernel, mu=mu, nu=mu, p=p)


def _active_block_connected(form: GraphForm) -> bool:
    """True when the non-Dirichlet vertices form one component of the
    positive-weight edge graph restricted to them (every weight is positive,
    so every active edge is an off-diagonal entry of the active form matrix)."""
    n_comp, _ = csgraph.connected_components(form.active_form_matrix, directed=False)
    return n_comp <= 1


@dataclass(frozen=True)
class ExcessiveConstruction:
    function: VertexFunction
    residual_min: float           # min of the generator residual L h (algebraic)
    stabilization_gap: float      # max relative movement of the tail minima
    schedule: tuple
    reference_set: tuple          # vertex ids of the normalization set B
    excessive: bool
    fatou_t: tuple = ()
    fatou_max_violation: float = 0.0
    per_level: tuple = field(default_factory=tuple)  # (radius, construction) pairs


def _construct_on_form(form: GraphForm, g, alpha_schedule, B_ids, tol_exc,
                       fatou_t) -> ExcessiveConstruction:
    tol = tolerances()["tol_exc"] if tol_exc is None else float(tol_exc)
    if not is_irreducible(form):
        raise NotIrreducible("construction requires an irreducible (connected) form")
    gv = np.asarray(as_function(form, g), dtype=float).copy()
    gv[form.boundary_mask] = 0.0
    act = form.active
    if np.any(gv[act] < 0) or not np.any(gv[act] > 0):
        raise NonPositiveInput("g must be nonnegative and not identically zero")

    B_idx = []
    for vid in B_ids:
        try:
            i = form.index(vid)
        except DomainMismatch:
            raise BadConfig(f"reference vertex {vid!r} not in the form") from None
        if form.boundary_mask[i]:
            raise BadConfig(f"reference vertex {vid!r} lies on the Dirichlet boundary")
        B_idx.append(i)
    B_pos = [int(np.searchsorted(act, i)) for i in B_idx]

    schedule = tuple(float(a) for a in (alpha_schedule
                                        if alpha_schedule is not None
                                        else default_alpha_schedule(1.0, 1e-10, 0.5)))
    if len(schedule) < 3:
        raise ScheduleTooShort("need at least 3 schedule points to witness stabilization")

    iterates = []
    for alpha in schedule:
        u = resolvent_apply(form, gv, alpha)[act]
        m = float(np.min(u[B_pos]))
        if m <= 0:
            raise NonPositiveInput(
                f"resolvent iterate vanishes on the reference set at alpha={alpha}"
            )
        iterates.append(u / m)

    # liminf surrogate: running minima of tails, inspected at the schedule end
    tail = iterates[-1].copy()
    tails = [tail.copy()]
    for v in reversed(iterates[:-1]):
        tail = np.minimum(tail, v)
        tails.append(tail.copy())
    tails.reverse()  # tails[k] = componentwise min over schedule[k:]

    last = tails[-1]
    probe = tails[-3]
    gap = float(np.max(np.abs(probe - last) / np.maximum(np.abs(last), 1e-300)))
    if gap > tol:
        raise ScheduleTooShort(
            f"tail minima still moving (relative gap {gap:.3e} > {tol:.3e}); "
            "extend the alpha schedule downward"
        )

    h_act = last / float(np.min(last[B_pos]))
    h = np.zeros(form.n)
    h[act] = h_act
    _, residual_min, excessive = _excessivity_gate(form, h, tol)

    fatou_violation = 0.0
    fatou_used = ()
    if fatou_t and act.size <= DENSE_SEMIGROUP_CUTOFF:
        fatou_used = tuple(float(t) for t in fatou_t)
        scale = float(np.max(h_act))
        for t in fatou_used:
            th = semigroup_apply(form, h, t)[act]
            fatou_violation = max(fatou_violation, float(np.max(th - h_act)) / scale)

    return ExcessiveConstruction(
        function=VertexFunction(vertices=form.vertices, values=h),
        residual_min=residual_min,
        stabilization_gap=gap,
        schedule=schedule,
        reference_set=tuple(B_ids),
        excessive=excessive,
        fatou_t=fatou_used,
        fatou_max_violation=fatou_violation,
    )


def construct_excessive(target, g=None, alpha_schedule=None, B=None,
                        tol_exc=None, fatou_t=(0.1, 1.0, 10.0),
                        harnack_target_mass: float = 0.5) -> ExcessiveConstruction:
    """Build a nonnegative excessive function as the (finite-schedule) liminf
    of normalized resolvents f_alpha = G_alpha g, normalized to min = 1 on the
    reference set B.

    ``target`` is a GraphForm or an exhaustion; for an exhaustion the
    construction runs per level (B defaults to the root) and the top level's
    result is returned with the per-level trail attached.  For a bare form
    with no B given, a weak-Harnack set of the time-1 heat kernel is used.
    """
    from .criticality import Exhaustion  # local import to avoid a cycle

    if isinstance(target, Exhaustion):
        exhaustion = target
        per = []
        for radius in exhaustion.radii:
            level = exhaustion.level(radius)
            g_level = g
            if g_level is None:
                g_level = {exhaustion.root: 1.0}
            B_ids = tuple(B) if B is not None else (exhaustion.root,)
            built = _construct_on_form(level, g_level, alpha_schedule, B_ids,
                                       tol_exc, fatou_t)
            per.append((radius, built))
        top = per[-1][1]
        return ExcessiveConstruction(
            function=top.function,
            residual_min=top.residual_min,
            stabilization_gap=top.stabilization_gap,
            schedule=top.schedule,
            reference_set=top.reference_set,
            excessive=top.excessive,
            fatou_t=top.fatou_t,
            fatou_max_violation=top.fatou_max_violation,
            per_level=tuple(per),
        )

    form = target
    if not isinstance(form, GraphForm):
        raise BadConfig("target must be a GraphForm or an Exhaustion")
    if g is None:
        gv = np.ones(form.n)
    else:
        gv = g
    if B is not None:
        B_ids = tuple(B)
    else:
        op = heat_kernel_operator(form, t=1.0)
        lam, _ = lambda_of(op)
        cert = harnack_sets(op, harnack_target_mass, lam)
        act = form.active
        B_ids = tuple(form.vertices[act[i]] for i in cert.members)
    return _construct_on_form(form, gv, alpha_schedule, B_ids, tol_exc, fatou_t)


@dataclass(frozen=True)
class ErgodicityReport:
    violated: bool
    location: int | None      # source index where the inequality fails
    lhs: float
    rhs: float
    witness: np.ndarray | None
    n_tried: int


def ergodicity_check(op: KernelOperator, A, n_samples: int = 50,
                     seed: int = 0) -> ErgodicityReport:
    """Search for a violation of T*(T 1_A f)^{p-1} <= 1_A T*(Tf)^{p-1}.

    For strictly positive kernels and proper nonempty A a violation must
    exist (the constant function already produces one off A); failing to find
    any flags numerically degenerate kernel data."""
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise BadConfig("A must be nonempty")
    if any(a < 0 or a >= op.n_source for a in A_idx):
        raise BadConfig("A contains out-of-range source indices")
    if len(A_idx) == op.n_source:
        raise BadConfig("A must be a proper subset (full space is vacuous)")
    mask = np.zeros(op.n_source)
    mask[A_idx] = 1.0

    rng = np.random.default_rng(seed)
    tried = 0
    candidates = [np.ones(op.n_source)]
    candidates += [rng.uniform(0.1, 1.0, op.n_source) for _ in range(max(n_samples - 1, 0))]
    for f in candidates:
        tried += 1
        lhs = op.star_t_power(mask * f)
        rhs = mask * op.star_t_power(f)
        diff = lhs - rhs
        k = int(np.argmax(diff))
        if diff[k] > 0:
            return ErgodicityReport(
                violated=True,
                location=k,
                lhs=float(lhs[k]),
                rhs=float(rhs[k]),
                witness=f,
                n_tried=tried,
            )
    raise NoViolationFound(
        f"no violation in {tried} samples; kernel entries are numerically degenerate"
    )
