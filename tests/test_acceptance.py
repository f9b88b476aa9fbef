"""Acceptance suite: one test per release criterion.

Each test prints one ``ACCEPTANCE n: ...`` line and is independently runnable;
stated runtime budgets are asserted inside the tests that carry one.
"""
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import critform as cf
from critform.cli import main as cli_main
from critform.families import (
    dirichlet_path_exhaustion,
    lattice,
    lattice_exhaustion,
    path_form,
    random_connected_form,
    random_kernel_data,
    random_tree_form,
)
from critform.kernel_ops import KernelOperator
from conftest import active_vector, form_spec, shifted


def _passline(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def _random_c0_form(n, seed):
    """Connected graph with zero potential (random tree plus extra edges)."""
    rng = np.random.default_rng(seed)
    ids = [str(k).zfill(3) for k in range(n)]
    edges = []
    seen = set()
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        seen.add((parent, k))
        edges.append([ids[parent], ids[k], float(rng.uniform(0.5, 2.0))])
    for _ in range(max(n // 4, 1)):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append([ids[u], ids[v], float(rng.uniform(0.5, 2.0))])
    return cf.build_form({
        "vertices": ids,
        "edges": edges,
        "mu": {v: float(rng.uniform(0.5, 2.0)) for v in ids},
    })


def test_criterion_1_trichotomy_verdicts():
    t0 = time.perf_counter()

    rep1 = cf.classify(lattice_exhaustion(1))
    assert rep1.verdict == "Critical"
    for radius, cap in rep1.capacity_trace:
        assert radius <= 200
        assert abs(cap - 2.0 / radius) <= 1e-10

    exh2 = lattice_exhaustion(2)
    assert max(exh2.radii) <= 64
    rep2 = cf.classify(exh2)
    assert rep2.verdict == "Critical"

    exh3 = lattice_exhaustion(3)
    assert max(exh3.radii) <= 12
    rep3 = cf.classify(exh3)
    assert rep3.verdict == "Subcritical"
    caps3 = [c for _, c in rep3.capacity_trace]
    raw_rel = abs(caps3[-1] - caps3[-2]) / caps3[-1]
    # the finite-box capacity itself converges like 1/R (raw consecutive
    # change ~5e-3 at R = 12); the verdict rests on the least-squares 1/R
    # extrapolation, whose limit is positive and 1e-3 below the exact 6/u_3
    assert rep3.fit["extrapolated_limit"] == pytest.approx(3.9528, abs=5e-3)
    assert rep3.fit["inverse_radius_resid"] <= 0.05

    rep_path = cf.classify(dirichlet_path_exhaustion())
    assert rep_path.verdict == "Subcritical"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(1, f"1D/2D Critical, 3D/path Subcritical in {elapsed:.1f}s "
                 f"(1D caps exact to 1e-10; 3D raw rel change {raw_rel:.1e}, "
                 f"verdict via 1/R extrapolation)")


def test_criterion_2_agmon_ground_state():
    gs = cf.agmon_ground_state(lattice_exhaustion(1), window_radius=10)
    dev = float(np.max(np.abs(gs.values - 1.0)))
    # window = the interior of the radius-10 level (its shell is Dirichlet)
    assert set(gs.vertices) == {str(i) for i in range(-9, 10)}
    assert dev <= 1e-6

    worst = 0.0
    for seed in range(10):
        n = int(np.random.default_rng(seed).integers(4, 40))
        form = _random_c0_form(n, seed)
        exh = cf.constant_exhaustion(form)
        gs0 = cf.agmon_ground_state(exh, window_radius=1)
        assert len(gs0.vertices) == form.n
        worst = max(worst, float(np.max(np.abs(gs0.values - 1.0))))
    # "exactly constant" at machine precision: no extrapolation tolerance
    assert worst <= 1e-13
    _passline(2, f"1D window deviation {dev:.1e} <= 1e-6; "
                 f"finite c=0 constant to {worst:.1e}")


def test_criterion_3_hardy_weights():
    t0 = time.perf_counter()

    form = path_form(200)          # Green function min(n, m)
    g = np.zeros(form.n)
    g[form.index("1")] = 1.0
    hw = cf.hardy_weight(form, g, n_samples=200, seed=5)
    assert hw.verification.passed
    assert hw.verification.pencil_lambda_max <= 1.0 + 1e-8

    rng = np.random.default_rng(2024)
    worst_pencil = 0.0
    for k in range(1000):
        n = int(rng.integers(5, 201))
        tree = random_tree_form(n, seed=9000 + k)
        gk = np.zeros(tree.n)
        gk[int(rng.integers(0, tree.n))] = 1.0
        hwk = cf.hardy_weight(tree, gk, n_samples=60, seed=40000 + k)
        assert hwk.verification.passed, (k, n)
        worst_pencil = max(worst_pencil, hwk.verification.pencil_lambda_max)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passline(3, f"path + 1000 random trees all pass in {elapsed:.1f}s "
                 f"(worst pencil {worst_pencil:.12f})")


def test_criterion_4_abstract_hardy_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    n_triples = 0
    min_gap = np.inf
    for k in range(250):
        form = random_connected_form(
            int(rng.integers(5, 41)), seed=31000 + k,
            signed_potential=bool(k % 2),
            dirichlet_count=int(rng.integers(0, 3)) if k % 5 == 0 else 0,
        )
        act = form.active
        for _ in range(40):
            h = np.zeros(form.n)
            h[act] = rng.uniform(0.1, 2.1, act.size)
            f = np.zeros(form.n)
            f[act] = rng.standard_normal(act.size)
            gap = cf.abstract_hardy_gap(form, h, f)
            min_gap = min(min_gap, gap)
            n_triples += 1
    elapsed = time.perf_counter() - t0
    assert n_triples == 10_000
    assert min_gap >= -1e-10
    assert elapsed < 60.0
    _passline(4, f"10^4 triples, min gap {min_gap:.2e} >= -1e-10 in {elapsed:.1f}s")


def test_criterion_5_weak_inequality_profiler():
    single = cf.build_form({"vertices": ["o"], "edges": [],
                            "potential": {"o": 1.0}})
    prof1 = cf.alpha_profile(single, seed=0)
    exact1 = np.maximum(1.0 - prof1.r_grid, 0.0)
    err1 = float(np.max(np.abs(prof1.alpha_cert - exact1)))
    assert err1 <= 1e-9

    two = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]})
    prof2 = cf.alpha_profile(two, mode="poincare", seed=0)
    exact2 = np.maximum((2.0 - prof2.r_grid) / 4.0, 0.0)
    err2 = float(np.max(np.abs(prof2.alpha_cert - exact2)))
    assert err2 <= 1e-9

    rng = np.random.default_rng(11)
    for k in range(24):
        n = int(rng.integers(4, 41))
        if k % 2 == 0:
            form = random_connected_form(n, seed=600 + k)
            prof = cf.alpha_profile(form, mode="hardy", seed=k)
        else:
            form = _random_c0_form(n, 600 + k)
            prof = cf.alpha_profile(form, mode="poincare", seed=k)
        assert np.all(prof.alpha_lb <= prof.alpha_cert)
        assert np.all(np.diff(prof.alpha_cert) <= 0)
    _passline(5, f"closed forms matched to {max(err1, err2):.1e}; "
                 f"sandwich holds on all grid points of 24 randomized runs")


def test_criterion_6_decay_rates():
    # flat profile closed form
    worst_rel = 0.0
    t_vals = np.array([0.1, 1.0, 10.0])
    for a in (0.5, 1.0, 2.0):
        grid = np.geomspace(1e-40, 1.0, 16)
        flat = np.full(grid.size, a)
        prof = cf.AlphaProfile(r_grid=grid, alpha_cert=flat, alpha_lb=flat,
                               mode="hardy", alpha_base=a, budget_exhausted=False)
        curve = cf.decay_rate(prof, t_vals)
        exact = np.exp(-2.0 * t_vals / a)
        assert np.max(np.abs(curve.xi - exact)) <= 1e-9
        worst_rel = max(worst_rel, float(np.max(np.abs(curve.xi / exact - 1.0))))
    assert worst_rel <= 1e-9

    # 200 random forms; h = G_1 g is excessive for the unit-shifted form
    rng = np.random.default_rng(314)
    n_pass = 0
    for k in range(200):
        n = int(rng.integers(5, 61))
        base = random_connected_form(n, seed=5000 + k, signed_potential=bool(k % 2))
        g = rng.uniform(0.5, 2.0, base.n)
        h = cf.resolvent_apply(base, g, 1.0)
        form = cf.build_form(form_spec(shifted(base, 1.0)))
        prof = cf.alpha_profile(form, h=h, seed=k, budget=(6, 30))
        r_lo = min(float(prof.r_grid[0]),
                   float(np.exp(-2.0 * 10.0 / prof.alpha_base - 12.0)))
        grid = np.geomspace(r_lo, float(prof.r_grid[-1]), 101)
        prof = cf.alpha_profile(form, h=h, r_grid=grid, seed=k, budget=(6, 30))
        curve = cf.decay_rate(prof, t_vals)
        ver = cf.verify_decay(form, h, curve, n_samples=20, seed=k)
        assert ver.passed, (k, n, ver.min_margin_rel)
        n_pass += 1
    _passline(6, f"flat-profile xi matches e^(-2t/a) to {worst_rel:.1e}; "
                 f"verify_decay passed on {n_pass}/200 forms at t in {{0.1, 1, 10}}")


def test_criterion_7_kernel_operator_toolkit():
    rng = np.random.default_rng(4)
    worst_rel = 0.0
    harnack_checked = 0
    for k in range(100):
        nt, ns = int(rng.integers(2, 41)), int(rng.integers(2, 41))
        kernel, mu, nu = random_kernel_data(nt, ns, seed=1200 + k)
        op = KernelOperator(kernel=kernel, mu=mu, nu=nu, p=2.0)
        lam, witness = cf.lambda_of(op)
        scaled = np.sqrt(nu)[:, None] * kernel * np.sqrt(mu)[None, :]
        sigma = float(np.linalg.svd(scaled, compute_uv=False)[0])
        rel = abs(lam - sigma**2) / sigma**2
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, (k, rel)

        assert cf.check_super_eigen(op, lam, witness) >= -1e-10
        cert = cf.harnack_sets(op, target_mass=0.5, lam=lam)
        members = np.array(cert.members)
        inside = witness[members]
        lhs = float(np.sum(inside * mu[members]))
        rhs = cert.D * float(np.min(inside))
        assert lhs <= rhs * (1 + 1e-10), (k, lhs, rhs)
        harnack_checked += 1

    built_ok = 0
    for k in range(100):
        n = int(rng.integers(5, 51))
        form = random_connected_form(n, seed=2300 + k, signed_potential=bool(k % 2))
        built = cf.construct_excessive(form)
        rep = cf.is_excessive(form, built.function.values)
        assert built.excessive
        assert rep.algebraic_min >= -1e-8, (k, rep.algebraic_min)
        built_ok += 1

    box = lattice(3, 3)
    built = cf.construct_excessive(box)
    rep = cf.is_excessive(box, built.function.values)
    assert built.excessive and rep.algebraic_min >= -1e-8

    _passline(7, f"lambda oracle worst rel {worst_rel:.1e} over 100 kernels; "
                 f"Harnack held on {harnack_checked} witnesses; "
                 f"construct_excessive passed on {built_ok} forms + 3D window")


def test_criterion_8_structural_sweeps():
    n_forms, per_form = 25, 400

    # first Beurling-Deny: q(|f|) <= q(f)
    worst_bd = -np.inf
    for k in range(n_forms):
        form = random_connected_form(int(np.random.default_rng(k).integers(5, 41)),
                                     seed=8100 + k, signed_potential=bool(k % 2))
        worst_bd = max(worst_bd, cf.check_first_bd(form, n_samples=per_form,
                                                   seed=8200 + k))
    assert worst_bd <= 1e-10

    # lattice inequality: q(f ^ g) + q(f v g) <= q(f) + q(g)
    rng = np.random.default_rng(55)
    min_lattice = np.inf
    for k in range(n_forms):
        form = random_connected_form(int(rng.integers(5, 41)), seed=8300 + k,
                                     signed_potential=bool(k % 2))
        for _ in range(per_form):
            f = active_vector(form, rng)
            g = active_vector(form, rng)
            min_lattice = min(min_lattice, cf.check_lattice_inequality(form, f, g))
    assert min_lattice >= -1e-10

    # resolvent identity: G_a - G_b = (b - a) G_a G_b
    identity_violations = 0
    worst_identity = 0.0
    for k in range(n_forms):
        form = random_connected_form(int(rng.integers(5, 41)), seed=8400 + k,
                                     signed_potential=bool(k % 2))
        alphas = rng.uniform(0.1, 3.0, size=3)
        for _ in range(per_form):
            a, b = rng.choice(alphas, size=2, replace=False)
            f = active_vector(form, rng)
            ga = cf.resolvent_apply(form, f, float(a))
            gb = cf.resolvent_apply(form, f, float(b))
            gagb = cf.resolvent_apply(form, gb, float(a))
            resid = np.max(np.abs(ga - gb - (b - a) * gagb))
            scale = max(1.0, float(np.max(np.abs(ga))), float(np.max(np.abs(gb))))
            worst_identity = max(worst_identity, resid / scale)
            identity_violations += resid > 1e-10 * scale
    assert identity_violations == 0

    # resolvent contraction bounds
    contraction_failures = 0
    for k in range(n_forms):
        form = random_connected_form(int(rng.integers(5, 41)), seed=8500 + k,
                                     signed_potential=bool(k % 2))
        alphas = rng.uniform(0.1, 2.0, size=4)
        for _ in range(per_form):
            f = active_vector(form, rng)
            con = cf.check_resolvent_contraction(form, f,
                                                 alpha=float(rng.choice(alphas)))
            contraction_failures += not (con.energy_ok and con.defect_ok)
    assert contraction_failures == 0

    # excessivity: grid test vs algebraic test agree on 100% of cases
    disagreements = 0
    n_exc = 0
    for k in range(n_forms):
        form = random_connected_form(int(rng.integers(5, 41)), seed=8600 + k)
        lu = spla.splu(form.form_matrix.tocsc())
        for j in range(per_form // 2):
            rho = rng.uniform(0.1, 1.0, form.n) * form.measure
            h = lu.solve(rho)          # L h = rho / mu > 0: clearly excessive
            assert np.all(h > 0)
            rep_in = cf.is_excessive(form, h)
            h_out = h.copy()           # spiked: clearly fails at the neighbors
            h_out[int(rng.integers(0, form.n))] += 10.0 * float(np.max(h))
            rep_out = cf.is_excessive(form, h_out)
            disagreements += (not rep_in.agree) + (not rep_out.agree)
            disagreements += (not rep_in.excessive) + rep_out.excessive
            n_exc += 2
    assert disagreements == 0

    _passline(8, f"BD1 worst {worst_bd:.1e}; lattice min {min_lattice:.1e}; "
                 f"identity worst {worst_identity:.1e}; 0 contraction failures; "
                 f"{n_exc} excessivity cases all agree")


def test_criterion_9_deterministic_reports(tmp_path):
    jobs = [
        ["classify", "--family", "lattice", "--param", "d=1",
         "--param", "radii=[5,10,20]"],
        ["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
         "--seed", "6"],
        ["check", "--seed", "12", "--n-forms", "3", "--n-samples", "25"],
    ]
    form = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]],
                          "potential": {"a": 1.0, "b": 1.0}})
    graph = tmp_path / "g.json"
    from critform.reports import emit_graph_document
    graph.write_text(emit_graph_document(form), encoding="utf-8")
    jobs.append(["alpha-profile", "--input", str(graph), "--seed", "9",
                 "--format", "csv"])

    n_files = 0
    for j, argv in enumerate(jobs):
        out1 = str(tmp_path / f"run{j}a")
        out2 = str(tmp_path / f"run{j}b")
        assert cli_main(argv + ["--output", out1]) == 0
        assert cli_main(argv + ["--output", out2]) == 0
        for suffix in (".json", ".profile.csv"):
            p1, p2 = tmp_path / f"run{j}a{suffix}", tmp_path / f"run{j}b{suffix}"
            if p1.exists():
                assert p1.read_bytes() == p2.read_bytes(), (argv, suffix)
                n_files += 1
    assert n_files >= len(jobs)
    _passline(9, f"{n_files} report files byte-identical across repeated runs")
