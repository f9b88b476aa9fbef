"""Capacity traces, exhaustion verdicts, ground states, certificate bundles."""
import numpy as np
import pytest

import critform as cf
from critform import criticality, resolvent
from critform.errors import DomainMismatch, NotCritical, ValidationFailure

from conftest import count_calls

WATSON_U3 = 1.516386059151978   # Watson's simple-cubic lattice Green's constant


def test_capacity_closed_form_on_segment():
    # 1D box of radius R: two independent escape routes of resistance R each
    for R in (3, 10, 40):
        form = cf.lattice(1, R)
        cap = cf.capacity(form, {"0"})
        assert cap.value == pytest.approx(2.0 / R, rel=1e-12)
        # equilibrium potential is the linear ramp
        for k in range(-R, R + 1):
            expect = 1.0 - abs(k) / R
            assert cap.equilibrium[form.index(str(k))] == pytest.approx(expect, abs=1e-12)


def test_capacity_series_resistance():
    # weighted two-edge chain to a grounded end: 1/cap = 1/b1 + 1/b2
    form = cf.build_form({
        "vertices": ["s", "m", "g"],
        "edges": [["s", "m", 2.0], ["m", "g", 3.0]],
        "dirichlet": ["g"],
    })
    cap = cf.capacity(form, {"s"})
    assert cap.value == pytest.approx(1.0 / (1.0 / 2.0 + 1.0 / 3.0), rel=1e-12)


def test_capacity_is_zero_on_components_detached_from_the_source():
    # path s - m - g (g grounded) plus a free pair x - y that no edge joins to
    # s: the system on {m, x, y} is singular, the equilibrium vanishes on x, y
    form = cf.build_form({
        "vertices": ["s", "m", "g", "x", "y"],
        "edges": [["s", "m", 1.0], ["m", "g", 1.0], ["x", "y", 2.0]],
        "dirichlet": ["g"],
    })
    cap = cf.capacity(form, {"s"})
    assert cap.value == pytest.approx(0.5, rel=1e-15)
    expect = {"s": 1.0, "m": 0.5, "g": 0.0, "x": 0.0, "y": 0.0}
    assert cap.equilibrium.tolist() == [expect[v] for v in form.vertices]
    # the minimum-norm least-squares solution of the whole singular system
    free = [form.index(v) for v in ("m", "x", "y")]
    Q = form.form_matrix.toarray()
    u, *_ = np.linalg.lstsq(Q[np.ix_(free, free)], -Q[free, form.index("s")], rcond=None)
    assert np.allclose(cap.equilibrium[free], u, atol=1e-15)


def test_capacity_cg_agrees_with_lu_on_3d_levels(monkeypatch):
    for R in (6, 8, 10, 12):
        form = cf.lattice(3, R)
        monkeypatch.setattr(resolvent, "DIRECT_MAX_UNKNOWNS", 0)       # CG
        cg = cf.capacity(form, {"0,0,0"})
        monkeypatch.setattr(resolvent, "DIRECT_MAX_UNKNOWNS", 10**9)   # SuperLU
        lu = cf.capacity(form, {"0,0,0"})
        assert abs(cg.value - lu.value) <= 1e-10 * lu.value
        assert np.max(np.abs(cg.equilibrium - lu.equilibrium)) <= 1e-8


def test_classify_3d_lattice_to_radius_20():
    rep = cf.classify(cf.lattice_exhaustion(3, (4, 8, 12, 16, 20)))
    assert rep.verdict == "Subcritical"
    assert abs(rep.fit["extrapolated_limit"] - 6.0 / WATSON_U3) <= 5e-3


def test_capacity_source_validation(pinned_path):
    with pytest.raises(DomainMismatch):
        cf.capacity(pinned_path, {"0"})   # source on the boundary
    with pytest.raises(DomainMismatch):
        cf.capacity(pinned_path, set())


def test_exhaustion_radii_must_increase():
    with pytest.raises(ValueError):
        cf.Exhaustion(generator=lambda R: cf.lattice(1, R), radii=(4, 4), root="0")


def test_exhaustion_nesting_spot_check():
    cf.lattice_exhaustion(1, radii=(3, 5, 8)).validate_nesting()
    # a generator whose potential depends on the radius is not nested
    def bad(R):
        return cf.build_form({
            "vertices": [str(k) for k in range(R + 1)],
            "edges": [[str(k), str(k + 1), 1.0] for k in range(R)],
            "potential": {"1": float(R)},
            "dirichlet": [str(R)],
        })
    exh = cf.Exhaustion(generator=bad, radii=(3, 5, 8), root="1")
    with pytest.raises(ValidationFailure):
        exh.validate_nesting()


def test_classify_flags_nonnested_capacity():
    # shrinking weights make the capacity increase along the "exhaustion"
    def gen(R):
        return cf.build_form({
            "vertices": ["o", "b"],
            "edges": [["o", "b", float(R)]],
            "dirichlet": ["b"],
        })
    exh = cf.Exhaustion(generator=gen, radii=(2, 4, 8), root="o")
    with pytest.raises(ValidationFailure):
        cf.classify(exh)


def test_classify_segment_family_critical():
    report = cf.classify(cf.lattice_exhaustion(1, radii=(10, 20, 40, 80)))
    assert report.verdict == "Critical"
    for R, cap in report.capacity_trace:
        assert cap == pytest.approx(2.0 / R, rel=1e-10)


def test_classify_constant_exhaustion_subcritical(triangle):
    report = cf.classify(cf.constant_exhaustion(triangle))
    assert report.verdict == "Subcritical"
    assert "flat" in report.reason


def test_classify_designed_critical_chain():
    # beta=2, gamma=1: (n+1)^{-1} is harmonic for the designed potential
    exh = cf.birth_death_exhaustion(2.0, gamma=1.0, radii=(20, 40, 80, 160))
    report = cf.classify(exh)
    assert report.verdict == "Critical"


def test_classify_fast_growth_chain_subcritical():
    # beta=2 with no potential: transient, capacity stabilizes
    exh = cf.birth_death_exhaustion(2.0, gamma=None, radii=(20, 40, 80, 160))
    report = cf.classify(exh)
    assert report.verdict == "Subcritical"


def test_designed_chain_kernel_residual():
    form = cf.birth_death(2.0, 60, gamma=1.0)
    h = np.zeros(form.n)
    for n in range(60):
        h[form.index(str(n))] = 1.0 / (n + 1.0)
    resid = cf.operator_apply(form, h)
    # exact design away from the absorbing cap ...
    inner = [form.index(str(n)) for n in range(59)]
    assert float(np.max(np.abs(resid[inner]))) <= 1e-12
    # ... and a supersolution at the vertex next to it (h is cut to 0 there)
    assert resid[form.index("59")] > 0


def test_null_sequence_energies_match_trace():
    exh = cf.lattice_exhaustion(1, radii=(5, 10, 20))
    terms = cf.null_sequence(exh, 3)
    assert [t.radius for t in terms] == [5, 10, 20]
    for t in terms:
        assert t.energy == pytest.approx(2.0 / t.radius, rel=1e-10)
        # each term is the equilibrium potential: 1 at the root
        assert t.function[t.level.index("0")] == pytest.approx(1.0)
    assert terms[0].energy > terms[1].energy > terms[2].energy


def test_ground_state_requires_critical_verdict(triangle):
    with pytest.raises(NotCritical):
        cf.agmon_ground_state(cf.constant_exhaustion(triangle), window_radius=1)


def test_ground_state_of_designed_chain_matches_design():
    # the equilibrium profiles carry a log(R)/R correction, so the pointwise
    # 1/R extrapolants drift at ~1e-4 even at R = 1600; request that tolerance
    exh = cf.birth_death_exhaustion(2.0, gamma=1.0, radii=(100, 200, 400, 800, 1600))
    gs = cf.agmon_ground_state(exh, window_radius=8, tol_gs=2e-4)
    for v, got in zip(gs.vertices, gs.values):
        expect = 1.0 / (int(v) + 1.0)
        assert got == pytest.approx(expect, rel=1e-3), v
    assert gs.residual_sup <= 1e-4


def counting_exhaustion(base):
    """``base`` with a generator that records (radius, level) of every build;
    holding the levels keeps them distinct."""
    built = []

    def generator(radius):
        built.append((radius, base.generator(radius)))
        return built[-1][1]
    return cf.Exhaustion(generator=generator, radii=base.radii, root=base.root), built


def test_ground_state_builds_and_solves_each_level_once(monkeypatch):
    exh, built = counting_exhaustion(cf.lattice_exhaustion(1, radii=(5, 10, 20, 40, 80)))
    solves = count_calls(monkeypatch, criticality, "capacity")

    def radii_built_and_solved():
        return (sorted(r for r, _ in built),
                sorted(r for level, _ in solves for r, form in built if form is level))

    gs = cf.agmon_ground_state(exh, window_radius=10)
    assert radii_built_and_solved() == ([5, 10, 20, 40, 80], [5, 10, 20, 40, 80])

    report = cf.classify(exh)
    built.clear()
    solves.clear()
    again = cf.agmon_ground_state(exh, window_radius=10, report=report)
    assert radii_built_and_solved() == ([10, 20, 40, 80], [20, 40, 80])
    assert np.array_equal(again.values, gs.values)
    assert again.residual_sup == gs.residual_sup


def test_certificates_consistent_on_subcritical_family():
    exh = cf.birth_death_exhaustion(2.0, gamma=None, radii=(20, 40, 80))
    bundle = cf.subcriticality_certificates(exh)
    assert bundle.consistent
    assert bundle.capacity_verdict == "Subcritical"
    assert bundle.kappa_trend == "stable"
    # the smoothing limit G g attains the exact constant: q(G g) = <G g, g>_mu
    _, kappa_last, _ = bundle.per_level[-1]
    assert bundle.kappa_sampled == pytest.approx(kappa_last, rel=1e-9)


def test_certificates_build_and_solve_each_level_once(monkeypatch):
    exh, built = counting_exhaustion(cf.birth_death_exhaustion(2.0, gamma=None,
                                                               radii=(20, 40, 80)))
    solves = count_calls(monkeypatch, criticality, "capacity")
    bundle = cf.subcriticality_certificates(exh)
    assert [r for r, _ in built] == [20, 40, 80] and len(solves) == 3
    assert bundle.capacity_verdict == "Subcritical"

    report = cf.classify(exh)
    built.clear()
    solves.clear()
    again = cf.subcriticality_certificates(exh, report=report)
    assert [r for r, _ in built] == [20, 40, 80] and solves == []
    assert again == bundle


def test_classify_with_artifacts_builds_the_top_level_once():
    exh, built = counting_exhaustion(cf.lattice_exhaustion(3, radii=(3, 4, 5)))
    report = cf.classify(exh, with_artifacts=True)
    assert [r for r, _ in built] == [3, 4, 5]
    assert report.verdict == "Subcritical" and report.hardy_summary["passed"]


def test_certificates_track_growth_on_critical_family():
    exh = cf.lattice_exhaustion(1, radii=(10, 20, 40, 80))
    bundle = cf.subcriticality_certificates(exh)
    assert bundle.capacity_verdict == "Critical"
    assert bundle.kappa_trend == "growing"
    kappas = [k for _, k, _ in bundle.per_level]
    assert kappas[-1] > kappas[0]
