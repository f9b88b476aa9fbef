"""Hardy weights from smoothing limits, their verification, and the
ground-state transform."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import (
    GreenDiverges,
    NonPositiveH,
    NonPositiveInput,
    SolverFailure,
    ValidationFailure,
)
from .forms import (
    GraphForm,
    as_domain_function,
    as_function,
    evaluate,
    evaluate_bilinear,
    evaluate_rows,
    sample_blocks,
)
from .proofs import _sum_of_squares_proves, _supersolution_proves
from .resolvent import default_alpha_schedule, green_apply, resolvent_apply
from .solvers import _solve

__all__ = [
    "HardyWeight",
    "HardyVerification",
    "GroundStateTransform",
    "hardy_weight",
    "verify_hardy",
    "abstract_hardy_gap",
    "perturbed_hardy_bound",
    "ground_state_transform",
]

PENCIL_CUTOFF = 2000  # read by no code here; bench/workloads.py sizes its trees by it


@dataclass(frozen=True)
class HardyVerification:
    """Sampled evidence and a supersolution proof for sum f^2 w mu <= q(f) + alpha |f|^2."""

    rho_sampled: float            # max ratio over the samples and the witness, <= 1 + tol_ineq
    pencil_lambda_max: float | None  # witness Rayleigh quotient, a lower bound on the top
    passed: bool                  # rho_sampled gate and the proof of top <= 1 + tol_eig
    n_samples: int                # random samples plus the witness
    alpha: float
    note: str = ""


@dataclass(frozen=True)
class HardyWeight:
    """A weight w with sum f^2 w mu <= q(f) + alpha_used * |f|_mu^2 for all f."""

    values: np.ndarray
    alpha_used: float
    g: np.ndarray
    denominator: np.ndarray       # the smoothing limit (or shifted resolvent) of g
    verification: HardyVerification


def hardy_weight(form: GraphForm, g, n_samples: int = 500, seed: int = 0) -> HardyWeight:
    """Build the optimal-ratio weight w = g / (limit of shifted solves of g),
    verified by ``verify_hardy`` on ``n_samples`` samples.

    ``g`` must be nonnegative, not identically zero, and vanish on the
    Dirichlet set; the weight vanishes off the support of g.  A diverging
    limit raises ``GreenDiverges``; ``perturbed_hardy_bound`` then gives the
    shifted weight (alpha_used > 0).
    """
    gv = as_domain_function(form, g)
    if np.any(gv < 0):
        raise NonPositiveInput("g must be nonnegative")
    if not np.any(gv > 0):
        raise NonPositiveInput("g must not be identically zero")

    result = green_apply(form, gv, alpha_schedule=default_alpha_schedule(1.0, 1e-10, 0.5))
    if not result.finite:
        raise GreenDiverges(
            "smoothing limit of g diverges; no unshifted weight exists "
            "(perturbed_hardy_bound gives the shifted weight)",
            trace=result.alpha_trace,
        )
    return _weight(form, gv, result.value, 0.0, n_samples=n_samples, seed=seed)


def _weight(form: GraphForm, gv, denom, alpha: float, n_samples: int, seed: int) -> HardyWeight:
    """w = g / denom on the support of g, verified at shift alpha."""
    support = gv > 0
    if np.any(denom[support] <= 0):
        raise SolverFailure("smoothing limit is not positive on the support of g")
    w = np.zeros(form.n)
    w[support] = gv[support] / denom[support]
    return HardyWeight(values=w, alpha_used=alpha, g=gv, denominator=denom,
                       verification=verify_hardy(form, w, n_samples=n_samples, seed=seed,
                                                 alpha=alpha))


def verify_hardy(form: GraphForm, w, n_samples: int = 1000, seed: int = 0,
                 alpha: float = 0.0) -> HardyVerification:
    """Check sum f^2 w mu <= q(f) + alpha |f|_mu^2 by sampling, and prove the
    pencil top lambda_max(W, Q_a) <= 1 + tol, i.e. Q_a - t' W >= 0, at every
    size, with tol = the table's tol_eig, Q_a = Q + alpha M, W = diag(w mu)
    and t' = 1/(1 + tol) rounded up.  Where c + alpha - t' w >= 0 at every
    vertex, q + alpha - t' w is a sum of squares.  Otherwise one solve at
    t = 1/(1 + tol/2) gives U = (Q_a - t W)^-1 [W 1, W 1 + 1e-3 mu max W / max mu],
    and the proof is that the second column is a positive supersolution of
    Q_a - t' W (``proofs._supersolution_proves``); a failed solve proves
    nothing.  The first column, the witness (the top direction when W has
    rank one), joins the samples, and ``pencil_lambda_max`` is its Rayleigh
    quotient, a lower bound on the top.
    """
    tol_e = tolerance("tol_eig")
    wv = as_function(form, w)
    if np.any(wv[form.active] < 0):
        raise NonPositiveInput("weight must be nonnegative")

    act = form.active
    mu = form.active_measure
    Q = form.active_form_matrix
    W = wv[act] * mu

    def max_ratio(X):
        # a row with no energy but positive weight mass has ratio +inf
        energy = evaluate_rows(form, X) + alpha * np.sum(X * X * mu, axis=1)
        mass = np.sum(X * X * W, axis=1)
        ratio = np.divide(mass, energy, out=np.where(mass > 0, np.inf, 0.0), where=energy > 0)
        return float(np.max(ratio, initial=0.0))

    rho = 0.0
    for X in sample_blocks(np.random.default_rng(seed), n_samples, act.size):
        rho = max(rho, max_ratio(X))

    lam_max, proved, note = None, act.size == 0, ""
    if act.size == 0:
        note = "no non-Dirichlet vertex: every admissible function vanishes"
    elif tol_e > -1:        # a claimed level 1 + tol <= 0 is never proved
        claim = (1 + 2.0 ** -51) / (1 + tol_e)
        c = form.potential[act] + alpha
        if _sum_of_squares_proves(c, claim * wv[act]):
            proved, note = True, "the potential c + alpha - w/(1 + tol_eig) is nonnegative"
        else:
            lift = 1e-3 * (W.max() or 1.0) / mu.max() * mu    # positive even where W = 0
            try:
                U = _solve(Q, np.column_stack([W, W + lift]), alpha * mu - W / (1 + tol_e / 2))
            except SolverFailure:
                pass
            else:
                lam_max = max_ratio(U[:, 0][None, :])
                rho, n_samples = max(rho, lam_max), n_samples + 1
                proved = _supersolution_proves(Q, alpha * mu - claim * W, U[:, 1],
                                               abs(alpha) * mu + claim * W)

    return HardyVerification(
        rho_sampled=rho,
        pencil_lambda_max=lam_max,
        passed=bool(proved and rho <= 1 + tolerance("tol_ineq")),
        n_samples=n_samples,
        alpha=alpha,
        note=note,
    )


def abstract_hardy_gap(form: GraphForm, h, f) -> float:
    """Gap q(h f) - q(h f^2, h), nonnegative for nonnegative h in the domain."""
    hv = as_domain_function(form, h)
    if np.any(hv < 0):
        raise NonPositiveH("h must be nonnegative")
    fv = as_function(form, f)
    return evaluate(form, hv * fv) - evaluate_bilinear(form, hv * fv * fv, hv)


def perturbed_hardy_bound(form: GraphForm, g, alpha: float) -> HardyWeight:
    """Shifted-weight bound: w_alpha = g / ((L + alpha)^(-1) g) satisfies
    sum f^2 w_alpha mu <= q(f) + alpha |f|_mu^2, verified on 500 samples (seed 0)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    gv = as_domain_function(form, g)
    if np.any(gv < 0) or not np.any(gv > 0):
        raise NonPositiveInput("g must be nonnegative and not identically zero")
    return _weight(form, gv, resolvent_apply(form, gv, alpha), float(alpha),
                   n_samples=500, seed=0)


@dataclass(frozen=True)
class GroundStateTransform:
    """Conjugated form with edge weights b*h(u)*h(v) and measure h^2*mu, chosen
    so that its energy of f equals the (shifted) original energy of h*f."""

    form: GraphForm
    h: np.ndarray
    alpha: float
    validation_max_err: float


def ground_state_transform(form: GraphForm, h, alpha: float = 0.0) -> GroundStateTransform:
    """Conjugate the form by a positive h.

    The new potential is recovered by residual assembly (matching the energy
    of every coordinate indicator) rather than by a closed formula, and the
    identity  q_new(f) = q(h f) + alpha |h f|_mu^2  is validated on 20 random
    functions (seed 0) to 1e-11 relative.  The new form keeps the vertex order.
    """
    hv = as_function(form, h)
    act = form.active
    if np.any(hv[act] <= 0):
        raise NonPositiveH("h must be strictly positive off the Dirichlet set")
    if np.any(hv < 0):
        raise NonPositiveH("h must be nonnegative on the Dirichlet set")

    i, j = form.edge_index.T
    new_weights = form.weights * hv[i] * hv[j]

    new_measure = np.where(hv > 0, hv * hv * form.measure, form.measure)

    # Residual assembly: the diagonal of the new form matrix must be
    # h(v)^2 * (Q + alpha M)_vv; subtract the new off-diagonal mass.
    deg_new = np.bincount(form.edge_index.T.ravel(), np.concatenate([new_weights] * 2),
                          minlength=form.n)
    Q_diag = np.asarray(form.form_matrix.diagonal()).ravel()
    target_diag = hv * hv * (Q_diag + alpha * form.measure)
    new_potential = np.zeros(form.n)
    pos = hv > 0
    new_potential[pos] = (target_diag[pos] - deg_new[pos]) / new_measure[pos]

    new_form = GraphForm._from_canonical(form._ids, form.edge_index, new_weights,
                                         new_measure, new_potential, form.boundary_mask)

    max_err = 0.0
    for X in sample_blocks(np.random.default_rng(0), 20, act.size):
        lhs = evaluate_rows(new_form, X)
        HX = hv[act] * X
        rhs = evaluate_rows(form, HX) + alpha * np.sum(HX * HX * form.active_measure, axis=1)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        max_err = max(max_err, float(np.max(np.abs(lhs - rhs) / scale, initial=0.0)))
    if max_err > 1e-11:
        raise ValidationFailure(
            f"transform identity failed: relative error {max_err:.3e}"
        )
    return GroundStateTransform(form=new_form, h=hv, alpha=float(alpha),
                                validation_max_err=max_err)

