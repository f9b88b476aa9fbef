"""Public signatures: gate thresholds are set only through the tolerance table
(``cf.job_tolerances``, ``CRITFORM_TOL_*``) or module constants."""
import inspect

import numpy as np
import pytest

import critform as cf

# per-call thresholds, cutoffs and backend switches that no report would echo
REMOVED_EVERYWHERE = {
    "tol_eig", "tol_green", "try_direct", "tol_exc", "tol_gs", "tol_cap", "config",
    "tol_rel", "flag_margin", "dense_cutoff", "stabilization_rel", "stabilization_window",
    "slope_threshold", "slope_band", "extrapolation_rel_resid", "competition_factor",
    "positive_floor_factor",
}
# names that other callables keep for other meanings (lambda_of(tol), job_tolerances(overrides)),
# knobs that no caller passed, and switches that only turned a certificate off
REMOVED_FROM = {
    "is_excessive": {"tol"}, "tolerances": {"overrides"},
    "agmon_ground_state": {"report"},
    "construct_excessive": {"harnack_target_mass"}, "constant_exhaustion": {"n_levels"},
    "hardy_weight": {"alpha_schedule", "allow_shift_fallback", "verify"},
    "perturbed_hardy_bound": {"n_samples", "seed"},
    "ground_state_transform": {"seed", "n_validation"},
    "decay_rate": {"rel_tol"}, "DecayCurve": {"rel_tol"},
    "heat_kernel_operator": {"p"}, "ergodicity_check": {"n_samples", "seed"},
    "alpha_profile_levels": {"r_grid", "mode", "budget", "seed"},
}


def _exported_callables():
    for name in dir(cf):
        obj = getattr(cf, name)
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj):
            if getattr(obj, "__module__", "").startswith("critform"):
                yield name, obj


def test_no_removed_parameter_reappears():
    checked = 0
    for name, obj in _exported_callables():
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):
            continue
        checked += 1
        banned = REMOVED_EVERYWHERE | REMOVED_FROM.get(name, set())
        assert not params & banned, (name, sorted(params & banned))
    assert checked > 50
    for helper in (cf.resolvent._semigroup_block, cf.kernel_ops._construct_on_form):
        assert not set(inspect.signature(helper).parameters) & REMOVED_EVERYWHERE
    assert list(inspect.signature(cf.Exhaustion.validate_nesting).parameters) == ["self"]


def test_every_hardy_weight_carries_its_certificate():
    fields = {f.name: f.type for f in cf.HardyWeight.__dataclass_fields__.values()}
    assert fields["verification"] == "HardyVerification"
    assert "rel_tol" not in {f.name for f in cf.DecayCurve.__dataclass_fields__.values()}


def test_classify_config_is_gone():
    assert not hasattr(cf, "ClassifyConfig")
    assert not hasattr(cf.criticality, "ClassifyConfig")
    assert "config" not in {f.name for f in cf.ClassificationReport.__dataclass_fields__.values()}


def test_grid_too_coarse_is_gone():
    # decay_rate reads alpha_base below every grid, so no grid is too coarse
    assert not hasattr(cf, "GridTooCoarse")
    assert not hasattr(cf.errors, "GridTooCoarse")


def test_certificate_bundle_is_gone():
    # its constant restated the capacity: κ_R² · cap_R = μ_o² on every level
    assert not hasattr(cf, "subcriticality_certificates")
    assert not hasattr(cf.criticality, "CertificateBundle")
    assert not hasattr(cf.errors, "InconsistentCertificates")


def test_job_tolerances_is_the_exported_override():
    with cf.job_tolerances({"tol_gs": 0.5}):
        assert cf.tolerances()["tol_gs"] == 0.5
    assert cf.tolerances()["tol_gs"] == cf.DEFAULT_TOLERANCES["tol_gs"]


@pytest.mark.parametrize("env", [False, True])
def test_one_tolerance_resolves_like_the_table(env, monkeypatch):
    keys = sorted(cf.DEFAULT_TOLERANCES)

    def setenv(value):
        for key in keys[::2]:                             # every other key from the environment
            monkeypatch.setenv("CRITFORM_TOL_" + key[len("tol_"):].upper(), value)

    def agree():
        table = cf.tolerances()
        assert {key: cf.tolerance(key) for key in keys} == table
        return table

    if env:
        setenv("0.375")
    assert agree()["tol_cap"] == (0.375 if env else cf.DEFAULT_TOLERANCES["tol_cap"])
    with cf.job_tolerances({"tol_gs": 0.5}):
        setenv("0.875")                                   # read when the job started, not now
        table = agree()
        assert table["tol_gs"] == 0.5
        assert table["tol_cap"] == (0.375 if env else cf.DEFAULT_TOLERANCES["tol_cap"])
    assert agree()["tol_cap"] == 0.875                    # outside a job, read at each call
    with pytest.raises(KeyError):
        cf.tolerance("tol_nope")


def test_solve_spd_takes_the_right_hand_side_and_returns_the_solution():
    # one call factors, solves and certifies: no solver closure to keep
    params = inspect.signature(cf.resolvent.solve_spd).parameters
    assert list(params) == ["A", "b", "shift"]
    assert params["b"].default is inspect.Parameter.empty
    u = cf.resolvent.solve_spd(cf.lattice(1, 3).active_form_matrix, np.ones(5))
    assert isinstance(u, np.ndarray) and u.shape == (5,)
