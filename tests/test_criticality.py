"""Capacity traces, exhaustion verdicts, ground states, null sequences."""
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import critform as cf
from critform import criticality, families, solvers
from critform.errors import DomainMismatch, NotCritical, SolverFailure, ValidationFailure

from conftest import count_calls, spec_lattice

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
        monkeypatch.setattr(solvers, "DIRECT_MAX_UNKNOWNS", 0)         # CG
        cg = cf.capacity(form, {"0,0,0"})
        monkeypatch.setattr(solvers, "DIRECT_MAX_UNKNOWNS", 10**9)     # SuperLU
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


def test_level_checks_the_root():
    level = cf.Exhaustion(generator=cf.dirichlet_path, radii=(4,), root="2").level(4)
    assert level.n == 5
    with pytest.raises(DomainMismatch, match="root '9' missing from level 4"):
        cf.Exhaustion(generator=cf.dirichlet_path, radii=(4,), root="9").level(4)
    with pytest.raises(DomainMismatch, match="lies on the boundary of level 4"):
        cf.Exhaustion(generator=cf.dirichlet_path, radii=(4,), root="4").level(4)


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


def renamed_apart_from_the_root(R):
    """``lattice(1, R)`` with every id but the root's tagged by R: no two levels nest."""
    base = cf.lattice(1, R)
    rename = {v: v if v == "0" else f"{v}@{R}" for v in base.vertices}
    return cf.GraphForm.from_arrays([rename[v] for v in base.vertices], base.edge_index,
                                    base.weights, base.measure, base.potential,
                                    [rename[v] for v in base.dirichlet])


def heavier_middle_edge(R):
    """A path whose edge ("1", "2") weighs R: the levels agree on every vertex."""
    return cf.build_form({
        "vertices": [str(k) for k in range(R + 1)],
        "edges": [[str(k), str(k + 1), float(R) if k == 1 else 1.0] for k in range(R)],
        "dirichlet": [str(R)],
    })


@pytest.mark.parametrize("generator,message", [
    (renamed_apart_from_the_root, "levels do not nest: unknown vertex id '-1@3'"),
    (heavier_middle_edge, "levels disagree on edge ('1', '2')"),
])
def test_nesting_check_names_what_does_not_nest(generator, message):
    exh = cf.Exhaustion(generator=generator, radii=(3, 5, 8), root="0")
    with pytest.raises(ValidationFailure) as caught:
        exh.validate_nesting()
    assert str(caught.value) == message


NESTING_SCRIPT = """
import critform as cf
from critform.errors import ValidationFailure

def grow(R):  # the measure grows with R, so every shared vertex disagrees
    return cf.build_form({
        "vertices": [str(k) for k in range(R + 1)],
        "edges": [[str(k), str(k + 1), 1.0] for k in range(R)],
        "mu": {str(k): float(R) for k in range(R + 1)},
        "dirichlet": [str(R)],
    })

try:
    cf.Exhaustion(generator=grow, radii=(3, 5, 8), root="1").validate_nesting()
except ValidationFailure as exc:
    print(exc)
"""


def test_nesting_failure_names_the_same_vertex_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(cf.__file__))
    messages = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", NESTING_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(run.stdout)
    assert messages == {"levels disagree at vertex '0'\n"}


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


def test_verdict_critical_when_the_1_over_r_limit_vanishes():
    # caps 5e-6 + 1e-8/R: above tol_cap (1e-6), flat over the last radii but
    # below the positive floor 10 * tol_cap, and decaying too slowly for the
    # slope test; the 1/R model wins with a limit of 5e-6 inside the floor
    radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    verdict, reason, fit = criticality._verdict(radii, 5e-6 + 1e-8 / radii)
    assert verdict == "Critical"
    assert reason == "1/R extrapolation vanishes (5.000e-06)"
    assert fit["extrapolated_limit"] == pytest.approx(5e-6, rel=1e-9)


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
        assert t.function[t.vertices.index("0")] == pytest.approx(1.0)
    assert terms[0].energy > terms[1].energy > terms[2].energy


def test_null_sequence_keeps_no_level_alive():
    base, refs = cf.lattice_exhaustion(2, radii=(4, 8, 16)), []

    def generator(radius):
        level = base.generator(radius)
        refs.append(weakref.ref(level))
        return level
    terms = cf.null_sequence(cf.Exhaustion(generator=generator, radii=base.radii,
                                           root=base.root), 3)
    assert len(refs) == 3 and all(ref() is None for ref in refs)
    assert [len(t.vertices) for t in terms] == [81, 289, 1089]


def test_ground_state_requires_critical_verdict(triangle):
    with pytest.raises(NotCritical):
        cf.agmon_ground_state(cf.constant_exhaustion(triangle), window_radius=1)


def test_ground_state_of_designed_chain_matches_design():
    # extrapolated against cap_R, the equilibria's log(R)/R correction drops
    # out: the default tol_gs holds and the profile is (n + 1)^-1 to rounding
    exh = cf.birth_death_exhaustion(2.0, gamma=1.0, radii=(100, 200, 400, 800, 1600))
    gs = cf.agmon_ground_state(exh, window_radius=8)
    for v, got in zip(gs.vertices, gs.values):
        expect = 1.0 / (int(v) + 1.0)
        assert got == pytest.approx(expect, rel=1e-12), v
    assert gs.residual_sup <= 1e-4


def test_classify_reports_the_designed_chain_ground_state():
    # default radii 25..400: window 25, where 1/R extrapolants drifted by 1.6e-4
    exh = cf.builtin_family("birth_death", {"beta": 2, "gamma": 1})
    report = cf.classify(exh, with_artifacts=True)
    assert report.verdict == "Critical"
    gs = cf.agmon_ground_state(exh, window_radius=25)
    assert gs.vertices == tuple(sorted(map(str, range(25))))
    expect = np.array([1.0 / (int(v) + 1.0) for v in gs.vertices])
    assert np.max(np.abs(gs.values / expect - 1.0)) <= 1e-12
    assert report.ground_state == {"window_radius": 25, "residual_sup": gs.residual_sup,
                                   "min": float(np.min(gs.values)),
                                   "max": float(np.max(gs.values))}
    assert report.ground_state["min"] == pytest.approx(1 / 25, rel=1e-12)


@pytest.mark.parametrize("d,radii", [(1, (5, 10, 20, 40, 80)), (2, (3, 5, 8, 12, 16)),
                                     (3, (3, 4, 5, 6))])
def test_classify_on_array_levels_matches_the_id_dict_levels(d, radii):
    # the same trace, fit and verdict, bit for bit, as levels built from
    # string-keyed graph descriptions
    by_ids = cf.Exhaustion(generator=lambda R: cf.build_form(spec_lattice(d, R)),
                           radii=radii, root=",".join(["0"] * d))
    got, want = cf.classify(cf.lattice_exhaustion(d, radii)), cf.classify(by_ids)
    assert got.capacity_trace == want.capacity_trace
    assert got.fit == want.fit
    assert (got.verdict, got.reason) == (want.verdict, want.reason)


def test_classify_builds_no_lattice_vertex_tuple(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice vertex ids materialized")
    monkeypatch.setattr(families._LatticeIds, "as_tuple", refuse)
    monkeypatch.setattr(families._LatticeIds, "__getitem__", refuse)
    report = cf.classify(cf.lattice_exhaustion(3, (4, 6, 8)))
    assert len(report.capacity_trace) == 3


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

    cf.agmon_ground_state(exh, window_radius=10)
    assert radii_built_and_solved() == ([5, 10, 20, 40, 80], [5, 10, 20, 40, 80])

    # classify reads its ground state (window 5, a radius) from its own pass
    built.clear()
    solves.clear()
    report = cf.classify(exh, with_artifacts=True)
    assert radii_built_and_solved() == ([5, 10, 20, 40, 80], [5, 10, 20, 40, 80])
    gs = cf.agmon_ground_state(exh, window_radius=5)
    assert report.verdict == "Critical"
    assert report.ground_state == {"window_radius": 5, "residual_sup": gs.residual_sup,
                                   "min": float(np.min(gs.values)),
                                   "max": float(np.max(gs.values))}


def test_ground_state_window_between_radii_is_built_once_after_the_pass(monkeypatch):
    # window 15 = 60 // 4 lies below the first radius: the pass solves the five
    # radii and level(15) is built once, after them, for the window's ids
    exh, built = counting_exhaustion(cf.lattice_exhaustion(1, radii=(20, 30, 40, 50, 60)))
    solves = count_calls(monkeypatch, criticality, "capacity")
    report = cf.classify(exh, with_artifacts=True)
    assert [r for r, _ in built] == [20, 30, 40, 50, 60, 15] and len(solves) == 5
    assert report.ground_state["window_radius"] == 15

    built.clear()
    solves.clear()
    gs = cf.agmon_ground_state(exh, window_radius=15)
    assert [r for r, _ in built] == [20, 30, 40, 50, 60, 15] and len(solves) == 5
    window = cf.lattice(1, 15)
    assert gs.vertices == tuple(window.vertices[i] for i in window.active)
    assert gs.levels_used == (20, 30, 40, 50, 60)
    assert np.allclose(gs.values, 1.0, rtol=0.0, atol=1e-12)
    assert report.ground_state == {"window_radius": 15, "residual_sup": gs.residual_sup,
                                   "min": float(np.min(gs.values)),
                                   "max": float(np.max(gs.values))}


def test_classify_keeps_its_verdict_when_levels_do_not_nest():
    # the capacities still vanish, but the window cannot be read on the larger levels
    exh = cf.Exhaustion(generator=renamed_apart_from_the_root, radii=(5, 10, 20, 40, 80),
                        root="0")
    report = cf.classify(exh, with_artifacts=True)
    assert report.verdict == "Critical"
    assert report.ground_state["error"].startswith("DomainMismatch")
    with pytest.raises(DomainMismatch):
        cf.agmon_ground_state(exh, window_radius=5)


# a graph document whose root "a" (its first non-Dirichlet vertex) has mu = 0.5
WEIGHTED_ROOT = cf.constant_exhaustion(cf.build_form({
    "vertices": ["a", "o", "b", "c"],
    "edges": [["a", "o", 2.0], ["o", "b", 0.5], ["b", "c", 3.0], ["a", "c", 1.0]],
    "mu": {"a": 0.5, "o": 3.0, "b": 2.0, "c": 1.5},
    "potential": {"b": 0.25},
    "dirichlet": ["c"],
}))


@pytest.mark.parametrize("exh", [cf.lattice_exhaustion(1, (25, 100)),
                                 cf.lattice_exhaustion(2, (8, 32)),
                                 cf.lattice_exhaustion(3, (4, 10)),
                                 cf.birth_death_exhaustion(2.0, gamma=None, radii=(25, 200)),
                                 WEIGHTED_ROOT],
                         ids=["Z1", "Z2", "Z3", "birth_death", "weighted_root"])
def test_capacity_times_green_function_at_the_root_is_its_measure(exh):
    # cap_R = 1/(Q_R^-1)_oo and (G_R delta_o)(o) = mu_o (Q_R^-1)_oo on every level
    for radius in exh.radii:
        level = exh.level(radius)
        o = level.index(exh.root)
        delta = np.zeros(level.n)
        delta[o] = 1.0
        product = cf.capacity(level, exh.root).value * cf.green_apply(level, delta).value[o]
        assert product == pytest.approx(level.measure[o], rel=1e-10)


def test_classify_builds_and_solves_each_level_once(monkeypatch):
    exh, built = counting_exhaustion(cf.birth_death_exhaustion(2.0, gamma=None,
                                                               radii=(20, 40, 80)))
    solves = count_calls(monkeypatch, criticality, "capacity")
    report = cf.classify(exh)
    assert [r for r, _ in built] == [20, 40, 80] and len(solves) == 3
    assert report.verdict == "Subcritical"


def test_classify_with_artifacts_builds_the_top_level_once():
    exh, built = counting_exhaustion(cf.lattice_exhaustion(3, radii=(3, 4, 5)))
    report = cf.classify(exh, with_artifacts=True)
    assert [r for r, _ in built] == [3, 4, 5]
    assert report.verdict == "Subcritical" and report.hardy_summary["passed"]


def test_classify_reports_typed_hardy_failures_only(monkeypatch, triangle):
    exh = cf.constant_exhaustion(triangle)

    def fail(error):
        def hardy_weight(*args, **kwargs):
            raise error
        monkeypatch.setattr(criticality, "hardy_weight", hardy_weight)

    fail(SolverFailure("singular"))
    report = cf.classify(exh, with_artifacts=True)
    assert report.verdict == "Subcritical"
    assert report.hardy_summary == {"error": "SolverFailure: singular"}
    fail(TypeError("a programming error"))
    with pytest.raises(TypeError, match="a programming error"):
        cf.classify(exh, with_artifacts=True)
