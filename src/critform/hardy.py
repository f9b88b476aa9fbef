"""Hardy weights from smoothing limits, their verification, and the
ground-state transform."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import tolerances
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
from .resolvent import default_alpha_schedule, green_apply, resolvent_apply

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

PENCIL_CUTOFF = 2000  # vertices; above this the certificate eigensolve is skipped


@dataclass(frozen=True)
class HardyVerification:
    """Sampled and spectral evidence for sum f^2 w mu <= q(f) + alpha |f|^2."""

    rho_sampled: float            # max sampled ratio, must be <= 1 + tol_ineq
    pencil_lambda_max: float | None  # exact certificate when computed
    passed: bool
    n_samples: int
    alpha: float
    note: str = ""


@dataclass(frozen=True)
class HardyWeight:
    """A weight w with sum f^2 w mu <= q(f) + alpha_used * |f|_mu^2 for all f."""

    values: np.ndarray
    alpha_used: float
    g: np.ndarray
    denominator: np.ndarray       # the smoothing limit (or shifted resolvent) of g
    verification: HardyVerification | None


def hardy_weight(form: GraphForm, g, alpha_schedule=None,
                 allow_shift_fallback: bool = False, verify: bool = True,
                 n_samples: int = 500, seed: int = 0) -> HardyWeight:
    """Build the optimal-ratio weight w = g / (limit of shifted solves of g).

    ``g`` must be nonnegative, not identically zero, and vanish on the
    Dirichlet set; the weight vanishes off the support of g.  If the limit
    diverges and ``allow_shift_fallback`` is set, the last schedule shift is
    kept and the perturbed inequality (alpha_used > 0) is certified instead.
    """
    gv = as_domain_function(form, g)
    if np.any(gv < 0):
        raise NonPositiveInput("g must be nonnegative")
    if not np.any(gv > 0):
        raise NonPositiveInput("g must not be identically zero")

    schedule = (default_alpha_schedule(1.0, 1e-10, 0.5)
                if alpha_schedule is None else np.asarray(alpha_schedule, dtype=float))

    alpha_used = 0.0
    result = green_apply(form, gv, alpha_schedule=schedule)
    if result.finite:
        denom = result.value
    else:
        if not allow_shift_fallback:
            raise GreenDiverges(
                "smoothing limit of g diverges; no unshifted weight exists "
                "(pass allow_shift_fallback=True for the perturbed bound)",
                trace=result.alpha_trace,
            )
        alpha_used = float(schedule[-1])
        denom = resolvent_apply(form, gv, alpha_used)

    support = gv > 0
    if np.any(denom[support] <= 0):
        raise SolverFailure("smoothing limit is not positive on the support of g")
    w = np.zeros(form.n)
    w[support] = gv[support] / denom[support]

    verification = None
    if verify:
        verification = verify_hardy(form, w, n_samples=n_samples, seed=seed,
                                    alpha=alpha_used)
    return HardyWeight(values=w, alpha_used=alpha_used, g=gv,
                       denominator=denom, verification=verification)


def verify_hardy(form: GraphForm, w, n_samples: int = 1000, seed: int = 0,
                 alpha: float = 0.0, tol_eig: float | None = None) -> HardyVerification:
    """Check sum f^2 w mu <= q(f) + alpha |f|_mu^2 by sampling plus, when the
    level is small enough, the exact largest pencil eigenvalue.

    Adversarial directions (top eigenvectors of the weight-against-energy
    pencil) are folded into the sample set, so the sampled ratio is sharp
    whenever the eigensolve runs.
    """
    tols = tolerances()
    tol_e = tols["tol_eig"] if tol_eig is None else float(tol_eig)
    wv = as_function(form, w)
    if np.any(wv[form.active] < 0):
        raise NonPositiveInput("weight must be nonnegative")

    act = form.active
    mu = form.active_measure
    Q = form.active_form_matrix
    W = wv[act] * mu

    def max_ratio(X):
        energy = evaluate_rows(form, X) + alpha * np.sum(X * X * mu, axis=1)
        X, energy = X[energy > 0], energy[energy > 0]
        return float(np.max(np.sum(X * X * W, axis=1) / energy, initial=0.0))

    # the random samples go first, so their block never sits beside the dense pencil
    rho = 0.0
    for X in sample_blocks(np.random.default_rng(seed), n_samples, act.size):
        rho = max(rho, max_ratio(X))

    lam_max = None
    note = ""
    if act.size == 0:
        note = "no non-Dirichlet vertex: every admissible function vanishes"
    elif act.size <= PENCIL_CUTOFF:
        A = np.diag(W)
        B = Q.toarray() + alpha * np.diag(mu)
        try:
            vals, vecs = scipy.linalg.eigh(A, B)
            lam_max = float(vals[-1])
            take = min(5, vecs.shape[1])
            rho = max(rho, max_ratio(vecs[:, -take:].T))
            n_samples += take
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            note = f"pencil eigensolve failed: {exc}"
    else:
        note = "level too large for the exact pencil certificate"

    passed = rho <= 1 + tols["tol_ineq"] and (lam_max is None or lam_max <= 1 + tol_e)
    return HardyVerification(
        rho_sampled=rho,
        pencil_lambda_max=lam_max,
        passed=passed,
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


def perturbed_hardy_bound(form: GraphForm, g, alpha: float,
                          n_samples: int = 500, seed: int = 0) -> HardyWeight:
    """Shifted-weight bound: w_alpha = g / ((L + alpha)^(-1) g) satisfies
    sum f^2 w_alpha mu <= q(f) + alpha |f|_mu^2."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    gv = as_domain_function(form, g)
    if np.any(gv < 0) or not np.any(gv > 0):
        raise NonPositiveInput("g must be nonnegative and not identically zero")
    denom = resolvent_apply(form, gv, alpha)
    support = gv > 0
    if np.any(denom[support] <= 0):
        raise SolverFailure("shifted solve is not positive on the support of g")
    w = np.zeros(form.n)
    w[support] = gv[support] / denom[support]
    verification = verify_hardy(form, w, n_samples=n_samples, seed=seed, alpha=alpha)
    return HardyWeight(values=w, alpha_used=float(alpha), g=gv,
                       denominator=denom, verification=verification)


@dataclass(frozen=True)
class GroundStateTransform:
    """Conjugated form with edge weights b*h(u)*h(v) and measure h^2*mu, chosen
    so that its energy of f equals the (shifted) original energy of h*f."""

    form: GraphForm
    h: np.ndarray
    alpha: float
    validation_max_err: float


def ground_state_transform(form: GraphForm, h, alpha: float = 0.0,
                           n_validation: int = 20, seed: int = 0) -> GroundStateTransform:
    """Conjugate the form by a positive h.

    The new potential is recovered by residual assembly (matching the energy
    of every coordinate indicator) rather than by a closed formula, and the
    identity  q_new(f) = q(h f) + alpha |h f|_mu^2  is validated on random
    functions to 1e-11 relative.  The new form keeps the vertex order.
    """
    hv = as_function(form, h)
    act = form.active
    if np.any(hv[act] <= 0):
        raise NonPositiveH("h must be strictly positive off the Dirichlet set")
    if np.any(hv < 0):
        raise NonPositiveH("h must be nonnegative on the Dirichlet set")

    i = form.edge_index[:, 0]
    j = form.edge_index[:, 1]
    new_weights = form.weights * hv[i] * hv[j]

    new_measure = np.where(hv > 0, hv * hv * form.measure, form.measure)

    # Residual assembly: the diagonal of the new form matrix must be
    # h(v)^2 * (Q + alpha M)_vv; subtract the new off-diagonal mass.
    deg_new = np.zeros(form.n)
    np.add.at(deg_new, i, new_weights)
    np.add.at(deg_new, j, new_weights)
    Q_diag = np.asarray(form.form_matrix.diagonal()).ravel()
    target_diag = hv * hv * (Q_diag + alpha * form.measure)
    new_potential = np.zeros(form.n)
    pos = hv > 0
    new_potential[pos] = (target_diag[pos] - deg_new[pos]) / new_measure[pos]

    new_form = GraphForm.from_arrays(form.vertices, form.edge_index, new_weights,
                                     new_measure, new_potential, form.dirichlet)

    max_err = 0.0
    for X in sample_blocks(np.random.default_rng(seed), n_validation, act.size):
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

