"""End-to-end CLI tests: in-process invocations of critform.cli.main."""
import argparse
import ast
import json
import pathlib

import numpy as np
import pytest

import critform as cf
from critform import cli
from critform.cli import JobConfig, main
from critform.forms import InvarianceReport
from critform.reports import emit_graph_document
from critform.weak_ineq import AlphaProfile, decay_rate

from conftest import count_calls


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def pd_form_file(tmp_path):
    """Two-vertex form with unit potential: positive definite, trivial kernel."""
    form = cf.build_form({
        "vertices": ["a", "b"],
        "edges": [["a", "b", 1.0]],
        "potential": {"a": 1.0, "b": 1.0},
        "name": "two-with-potential",
    })
    path = tmp_path / "pd.json"
    path.write_text(emit_graph_document(form), encoding="utf-8")
    return str(path)


def test_classify_lattice_1d(tmp_path):
    prefix = str(tmp_path / "cls")
    code = main(["classify", "--family", "lattice", "--param", "d=1",
                 "--param", "radii=[5,10,20,40]", "--output", prefix])
    assert code == 0
    doc = read_json(prefix + ".json")
    assert doc["command"] == "classify"
    assert doc["results"]["verdict"] == "Critical"
    assert len(doc["results"]["capacity_trace"]) == 4
    # 1D capacities are exactly 2/R
    for radius, cap in doc["results"]["capacity_trace"]:
        assert cap == pytest.approx(2.0 / radius, abs=1e-12)
    assert doc["provenance"]["tool"] == "critform"


def test_classify_file_input_is_subcritical(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(12)), encoding="utf-8")
    prefix = str(tmp_path / "cls")
    code = main(["classify", "--input", str(graph), "--output", prefix])
    assert code == 0
    assert read_json(prefix + ".json")["results"]["verdict"] == "Subcritical"


def test_classify_inconclusive_exits_2(tmp_path):
    # three small 3-D levels: the trace neither vanishes, flattens nor fits a model
    prefix = str(tmp_path / "cls")
    assert main(["classify", "--family", "lattice", "--param", "d=3",
                 "--param", "radii=[2,3,4]", "--output", prefix]) == 2
    res = read_json(prefix + ".json")["results"]
    assert res["verdict"] == "Inconclusive"
    assert res["reason"] == "trace neither vanished, stabilized, nor fit a model"


def test_green_finite_column(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(20)), encoding="utf-8")
    prefix = str(tmp_path / "grn")
    code = main(["green", "--input", str(graph), "--source", "5",
                 "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["status"] == "finite"
    # the Green function of the one-sided path is min(n, m)
    assert res["value_at_source"] == pytest.approx(5.0, abs=1e-8)
    assert res["value"]["3"] == pytest.approx(3.0, abs=1e-8)
    assert res["value"]["17"] == pytest.approx(5.0, abs=1e-8)


def test_green_divergence_is_definitive(tmp_path, capsys):
    form = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]})
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(form), encoding="utf-8")
    code = main(["green", "--input", str(graph), "--source", "a"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["status"] == "diverges"
    assert "value" not in doc["results"]


def test_green_needs_source_for_files(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(5)), encoding="utf-8")
    prefix = str(tmp_path / "err")
    code = main(["green", "--input", str(graph), "--output", prefix])
    assert code == 1
    doc = read_json(prefix + ".json")
    assert doc["error"]["type"] == "BadConfig"


def test_green_unknown_vertex(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(5)), encoding="utf-8")
    prefix = str(tmp_path / "err")
    code = main(["green", "--input", str(graph), "--source", "zz",
                 "--output", prefix])
    assert code == 1
    assert read_json(prefix + ".json")["error"]["type"] == "BadConfig"


def test_hardy_weight_requires_seed(capsys):
    code = main(["hardy-weight", "--family", "dirichlet_path",
                 "--param", "radii=[25,50]"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "BadConfig"
    assert "seed" in doc["error"]["message"]


def test_hardy_weight_passes_on_dirichlet_path(tmp_path):
    prefix = str(tmp_path / "hw")
    code = main(["hardy-weight", "--family", "dirichlet_path",
                 "--param", "radii=[25,50]", "--seed", "11",
                 "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["verification"]["passed"] is True
    assert res["verification"]["rho_sampled"] <= 1 + 1e-10
    assert res["verification"]["pencil_lambda_max"] <= 1 + 1e-8
    assert all(v >= 0 for v in res["weight"].values())


def test_ground_state_of_designed_chain(tmp_path):
    prefix = str(tmp_path / "gs")
    code = main(["ground-state", "--family", "birth_death",
                 "--param", "beta=2", "--param", "gamma=1",
                 "--param", "radii=[100,200,400,800,1600]", "--window", "8",
                 "--tol", "tol_gs=2e-4", "--output", prefix])
    assert code == 0
    doc = read_json(prefix + ".json")
    res = doc["results"]
    assert doc["provenance"]["tolerances"]["tol_gs"] == 2e-4
    assert res["values"]["0"] == pytest.approx(1.0, abs=1e-12)
    assert res["values"]["1"] == pytest.approx(0.5, rel=1e-3)
    assert res["residual_sup"] < 1e-4


def test_alpha_profile_requires_seed(pd_form_file, capsys):
    code = main(["alpha-profile", "--input", pd_form_file])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "BadConfig"


def test_alpha_profile_csv_output(pd_form_file, tmp_path):
    prefix = str(tmp_path / "prof")
    code = main(["alpha-profile", "--input", pd_form_file, "--seed", "3",
                 "--format", "csv", "--output", prefix])
    assert code == 0
    doc = read_json(prefix + ".json")
    prof = doc["results"]["profile"]
    assert len(prof["r"]) == len(prof["alpha_cert"]) == len(prof["alpha_lb"])
    cert = np.array(prof["alpha_cert"])
    assert np.all(np.diff(cert) <= 1e-15)
    assert np.all(np.array(prof["alpha_lb"]) <= cert + 1e-12)
    csv_text = (tmp_path / "prof.profile.csv").read_text(encoding="utf-8")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "r,alpha_cert,alpha_lb"
    assert len(lines) == len(prof["r"]) + 1


def test_decay_from_profile_report(pd_form_file, tmp_path):
    prof_prefix = str(tmp_path / "prof")
    assert main(["alpha-profile", "--input", pd_form_file, "--seed", "5",
                 "--output", prof_prefix]) == 0
    decay_prefix = str(tmp_path / "dec")
    code = main(["decay", "--profile-report", prof_prefix + ".json",
                 "--t-grid", "1e-3,1e-2", "--output", decay_prefix])
    assert code == 0
    dec = read_json(decay_prefix + ".json")["results"]
    # reconstruct the profile from the emitted report and recompute
    prof_doc = read_json(prof_prefix + ".json")["results"]
    profile = AlphaProfile(
        r_grid=np.array(prof_doc["profile"]["r"]),
        alpha_cert=np.array(prof_doc["profile"]["alpha_cert"]),
        alpha_lb=np.array(prof_doc["profile"]["alpha_lb"]),
        mode=prof_doc["mode"],
        alpha_base=float(prof_doc["alpha_base"]),
        budget_exhausted=False,
    )
    curve = decay_rate(profile, [1e-3, 1e-2])
    assert dec["xi"] == [float(x) for x in curve.xi]
    assert 0 < dec["xi"][1] <= dec["xi"][0]


def test_decay_verify_flag(pd_form_file, tmp_path):
    prefix = str(tmp_path / "dec")
    code = main(["decay", "--input", pd_form_file, "--seed", "2",
                 "--t-grid", "1e-3,1e-2", "--verify", "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["verification"]["passed"] is True
    assert res["verification"]["n_checks"] > 0


def test_decay_regrid_reaches_subnormal_rates(pd_form_file, tmp_path):
    # alpha_base is 1 here, so xi(358) = exp(-716) ~ 1.1e-311 is subnormal and lies
    # far below the job's grid; the bisection ends on adjacent floats
    prefix = str(tmp_path / "dec")
    assert main(["decay", "--input", pd_form_file, "--seed", "2",
                 "--t-grid", "1,358", "--output", prefix]) == 0
    res = read_json(prefix + ".json")["results"]
    assert res["alpha_base"] == 1.0
    assert res["xi"][1] == pytest.approx(np.exp(-716.0), rel=1e-6)


@pytest.fixture
def free_pair_file(tmp_path, two_path):
    """Two free vertices with zero potential: the kernel is spanned by h = 1."""
    path = tmp_path / "free.json"
    path.write_text(emit_graph_document(two_path), encoding="utf-8")
    return str(path)


def _run_twice(tmp_path, args):
    """Run a job twice; return its results after checking the reports are byte-identical."""
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    return read_json(out1 + ".json")["results"]


def test_alpha_profile_poincare_mode(free_pair_file, tmp_path):
    res = _run_twice(tmp_path, ["alpha-profile", "--input", free_pair_file,
                                "--mode", "poincare", "--seed", "0"])
    assert res["mode"] == "poincare"
    r = np.array(res["profile"]["r"])
    exact = np.maximum((2.0 - r) / 4.0, 0.0)
    assert np.max(np.abs(np.array(res["profile"]["alpha_cert"]) - exact)) <= 1e-9
    assert np.max(np.abs(np.array(res["profile"]["alpha_lb"]) - exact)) <= 1e-9


def test_decay_poincare_mode(free_pair_file, two_path, tmp_path):
    res = _run_twice(tmp_path, ["decay", "--input", free_pair_file, "--mode", "poincare",
                                "--seed", "0", "--t-grid", "0.1,1,2", "--verify"])
    # the samples are checked on the complement of h = 1, and h itself is not
    assert res["verification"]["passed"] is True
    assert res["verification"]["min_margin_rel"] > 0
    assert res["alpha_base"] == pytest.approx(0.5, rel=1e-12)
    # the exact profile alpha(r) = max((2 - r) / 4, 0) on the grid the job used
    r = cf.alpha_profile(two_path, mode="poincare", seed=0).r_grid
    exact = np.maximum((2.0 - r) / 4.0, 0.0)
    curve = decay_rate(AlphaProfile(r_grid=r, alpha_cert=exact, alpha_lb=exact, mode="poincare",
                                    alpha_base=0.5, budget_exhausted=False), res["t"])
    assert np.allclose(res["xi"], curve.xi, rtol=1e-9, atol=0.0)
    assert 0 < res["xi"][2] < res["xi"][1] < res["xi"][0] < 1


def test_classify_critical_ground_state_from_its_own_pass(tmp_path):
    # radii (25, ..., 200): window min(25, 200 // 4) = 25, the first radius;
    # the equilibria 1 - |k|/R extrapolate to h = 1 exactly
    res = _run_twice(tmp_path, ["classify", "--with-artifacts", "--family", "lattice",
                                "--param", "d=1"])
    assert res["verdict"] == "Critical"
    gs = res["ground_state"]
    assert gs["window_radius"] == 25
    assert gs["residual_sup"] <= 1e-14
    assert gs["min"] == pytest.approx(1.0, abs=1e-12)
    assert gs["max"] == pytest.approx(1.0, abs=1e-12)
    assert "hardy_summary" not in res


@pytest.fixture
def shifted_forty_file(tmp_path):
    """random_connected_form(40, seed=3) with potential + 1.  alpha_base = 0.83,
    so xi(10) lies near exp(-2 * 10 / 0.83) = 3e-11, below the default grid's
    r_min of 4.8e-11."""
    base = cf.random_connected_form(40, seed=3)
    form = cf.GraphForm.from_arrays(base.vertices, base.edge_index, base.weights,
                                    base.measure, base.potential + 1.0, base.dirichlet)
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(form), encoding="utf-8")
    return str(graph)


def test_decay_answers_below_its_default_and_explicit_grid(shifted_forty_file, tmp_path):
    # below either grid alpha_base bounds alpha, and the bound verifies
    prefix = str(tmp_path / "dec")
    for grid in ([], ["--r-grid", "4.772e-11,2.2,81"]):
        assert main(["decay", "--input", shifted_forty_file, "--seed", "40", "--verify",
                     *grid, "--output", prefix]) == 0
        res = read_json(prefix + ".json")["results"]
        assert res["verification"]["passed"] is True
        assert len(res["xi"]) == 3 and 0 < res["xi"][-1] < 4.772e-11


def test_decay_job_profiles_once(shifted_forty_file, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cli, "alpha_profile")
    assert main(["decay", "--input", shifted_forty_file, "--seed", "40",
                 "--output", str(tmp_path / "dec")]) == 0
    assert len(calls) == 1


def test_decay_from_its_own_profile_report_matches_the_job(shifted_forty_file, tmp_path):
    direct, prof, via = (str(tmp_path / name) for name in ("direct", "prof", "via"))
    assert main(["decay", "--input", shifted_forty_file, "--seed", "40", "--output", direct]) == 0
    assert main(["alpha-profile", "--input", shifted_forty_file, "--seed", "40",
                 "--output", prof]) == 0
    assert main(["decay", "--profile-report", prof + ".json", "--output", via]) == 0
    assert read_json(via + ".json")["results"]["xi"] == read_json(direct + ".json")["results"]["xi"]


def test_excessive_command(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(15)), encoding="utf-8")
    prefix = str(tmp_path / "exc")
    code = main(["excessive", "--input", str(graph), "--source", "1",
                 "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["excessive"] is True
    assert res["residual_min"] >= -1e-8
    assert min(res["values"][v] for v in res["reference_set"]) == pytest.approx(1.0)


def write_kernel(path, kernel, mu, nu):
    doc = {"kernel": kernel, "mu": mu, "nu": nu}
    path.write_text(json.dumps({k: np.asarray(v).tolist() for k, v in doc.items()}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def kernel_file(tmp_path):
    rng = np.random.default_rng(7)
    return write_kernel(tmp_path / "op.json", rng.uniform(0.5, 2.0, (4, 4)),
                        [1.0, 1.0, 2.0, 1.0], [1.0, 1.5, 1.0, 1.0])


def test_harnack_command(tmp_path, kernel_file):
    prefix = str(tmp_path / "har")
    code = main(["harnack", "--input", kernel_file, "--target-mass", "0.5",
                 "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["harnack_holds"] is True
    assert res["mass_fraction"] >= 0.5
    assert res["lambda"] > 0
    assert res["witness_excess"] >= -1e-10


def test_harnack_gate_applies_the_echoed_tol_ineq(tmp_path, kernel_file):
    # the default gate holds here with harnack_lhs / harnack_rhs = 0.61
    prefix = str(tmp_path / "har")
    assert main(["harnack", "--input", kernel_file, "--tol", "tol_ineq=-0.5",
                 "--output", prefix]) == 1
    doc = read_json(prefix + ".json")
    assert doc["results"]["harnack_holds"] is False
    assert doc["provenance"]["tolerances"]["tol_ineq"] == -0.5


def test_harnack_on_the_path_heat_kernel(tmp_path):
    # a power iteration takes more than 20,000 steps to close this bracket to 1e-10
    op = cf.heat_kernel_operator(cf.path_form(300), t=1.0)
    prefix = str(tmp_path / "heat")
    op_file = write_kernel(tmp_path / "heat.json", op.kernel, op.mu, op.nu)
    assert main(["harnack", "--input", op_file, "--output", prefix]) == 0
    res = read_json(prefix + ".json")["results"]
    assert res["harnack_holds"] is True
    assert res["lambda"] == cf.lambda_of(op)[0]


def test_check_command(tmp_path):
    prefix = str(tmp_path / "chk")
    code = main(["check", "--seed", "3", "--n-forms", "4",
                 "--n-samples", "20", "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["violations"] == 0
    assert res["first_bd_worst_gap"] <= 1e-10
    assert res["lattice_min_gap"] >= -1e-10


def test_check_counts_an_invariance_verdict_without_evidence(tmp_path, monkeypatch):
    # a non-invariant verdict whose witness does not raise the energy
    def unsupported(form, subset, *args, **kwargs):
        return InvarianceReport(subset=tuple(subset), invariant=False,
                                crossing_edges=(("a", "b"),), witness=None,
                                witness_gap=0.0, corroboration_gap=0.0)
    monkeypatch.setattr(cli, "is_invariant_set", unsupported)
    prefix = str(tmp_path / "chk")
    assert main(["check", "--seed", "3", "--n-forms", "2", "--n-samples", "20",
                 "--output", prefix]) == 1
    res = read_json(prefix + ".json")["results"]
    assert res["invariant_set_mismatches"] >= 1
    assert res["violations"] >= res["invariant_set_mismatches"]


def test_check_gates_both_inequalities_with_tol_ineq(tmp_path):
    # tol_ineq = -1 demands a margin of 1: q(|f|) - q(f) <= -1 and every lattice gap >= 1
    prefix = str(tmp_path / "chk")
    assert main(["check", "--seed", "1", "--n-forms", "4", "--tol", "tol_ineq=-1",
                 "--output", prefix]) == 1
    res = read_json(prefix + ".json")["results"]
    assert res["first_bd_worst_gap"] > -1 and res["lattice_min_gap"] < 1
    others = (res["resolvent_contraction_failures"] + res["invariant_set_mismatches"]
              + res["excessivity_test_disagreements"])
    assert res["violations"] == others + 2


def test_zero_sample_count_is_kept(capsys):
    assert main(["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
                 "--seed", "1", "--n-samples", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["options"]["n_samples"] == 0
    assert doc["results"]["verification"]["n_samples"] == 1    # the witness alone


def test_zero_form_count_is_kept(capsys):
    assert main(["check", "--seed", "1", "--n-forms", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["options"]["n_forms"] == 0
    assert doc["results"]["n_forms"] == 0


@pytest.mark.parametrize("command, options", [
    ("classify", {}),
    ("green", {}),
    ("hardy-weight", {"n_samples": 500}),
    ("ground-state", {"window": 10}),
    ("alpha-profile", {"mode": "hardy"}),
    ("decay", {"mode": "hardy", "t_grid": "0.1,1,10", "n_samples": 50}),
    ("excessive", {}),
    ("harnack", {"target_mass": 0.5}),
    ("check", {"n_forms": 10, "n_samples": 50}),
])
def test_default_options_per_command(command, options, monkeypatch, capsys):
    jobs = []
    monkeypatch.setattr(cli, "run", lambda job: (jobs.append(job), ({}, {}, 0))[1])
    assert main([command]) == 0
    assert jobs[0].options == options


def test_set_flags_and_family_reach_the_options(monkeypatch, capsys):
    jobs = []
    monkeypatch.setattr(cli, "run", lambda job: (jobs.append(job), ({}, {}, 0))[1])
    main(["classify", "--with-artifacts", "--family", "lattice", "--level", "3",
          "--param", "d=1", "--seed", "4"])
    assert jobs[0].options == {"artifacts": True, "family": "lattice", "level": 3,
                               "params": {"d": 1}}


def test_parser_is_built_once_and_keeps_no_state_between_jobs(tmp_path):
    # a fresh parser serves the first job; the same one serves a check job
    # with other flags and then the first job again
    cli._build_parser.cache_clear()
    args = ["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
            "--seed", "1"]
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output", first]) == 0
    assert main(["check", "--seed", "3", "--n-forms", "2", "--n-samples", "20",
                 "--tol", "tol_ineq=1e-9", "--output", str(tmp_path / "c")]) == 0
    assert main(args + ["--output", second]) == 0
    assert cli._build_parser.cache_info().misses == 1
    # the whole report, its config included, is what a fresh parser gave
    with open(first + ".json", encoding="utf-8") as fa, \
            open(second + ".json", encoding="utf-8") as fb:
        assert fa.read() == fb.read()


def test_reports_are_byte_stable(tmp_path):
    args = ["classify", "--family", "lattice", "--param", "d=1",
            "--param", "radii=[5,10,20]"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    blob1 = (tmp_path / "a.json").read_bytes()
    assert blob1 == (tmp_path / "b.json").read_bytes()
    assert blob1.endswith(b"\n")


def test_seeded_randomized_reports_are_byte_stable(tmp_path):
    args = ["hardy-weight", "--family", "dirichlet_path",
            "--param", "radii=[25,50]", "--seed", "4"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_bad_input_file_is_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}', encoding="utf-8")
    prefix = str(tmp_path / "err")
    code = main(["classify", "--input", str(bad), "--output", prefix])
    assert code == 1
    doc = read_json(prefix + ".json")
    assert doc["error"]["type"] == "ParseError"
    assert "line" in doc["error"]["message"]


def test_unknown_family(capsys):
    code = main(["classify", "--family", "moebius", "--seed", "1"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "UnknownFamily"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("key", sorted(cf.DEFAULT_TOLERANCES))
def test_tol_flag_and_environment_reach_the_gates_alike(key, tmp_path, monkeypatch):
    seen = []

    def record(job):
        seen.append(cf.tolerances()[key])
        return {}, {}, 0

    monkeypatch.setitem(cli._RUNNERS, "check", record)
    prefix = str(tmp_path / "job")
    assert main(["check", "--seed", "1", "--tol", f"{key}=0.125", "--output", prefix]) == 0
    assert cf.tolerances()[key] == cf.DEFAULT_TOLERANCES[key]   # gone with the job
    monkeypatch.setenv("CRITFORM_TOL_" + key[len("tol_"):].upper(), "0.125")
    assert main(["check", "--seed", "1", "--output", prefix]) == 0
    assert seen == [0.125, 0.125]


@pytest.mark.parametrize("key", sorted(cf.DEFAULT_TOLERANCES))
def test_tol_flag_wins_over_environment_and_is_resolved_once(key, tmp_path, monkeypatch):
    env = "CRITFORM_TOL_" + key[len("tol_"):].upper()
    seen = []

    def record(job):
        table = cf.tolerances()
        table[key] = -1.0                       # a copy: the job's table is untouched
        monkeypatch.setenv(env, "0.75")         # read when the job started, not now
        seen.append(cf.tolerances()[key])
        return {}, {}, 0

    monkeypatch.setitem(cli._RUNNERS, "check", record)
    monkeypatch.setenv(env, "0.5")
    prefix = str(tmp_path / "job")
    assert main(["check", "--seed", "1", "--tol", f"{key}=0.125", "--output", prefix]) == 0
    assert main(["check", "--seed", "1", "--output", prefix]) == 0
    assert seen == [0.125, 0.75]
    assert cf.tolerances()[key] == 0.75         # outside a job the environment is read


def test_provenance_echoes_the_environment_the_job_read(monkeypatch):
    def record(job):
        monkeypatch.setenv("CRITFORM_TOL_INEQ", "0.75")
        return {"seen": cf.tolerances()["tol_ineq"]}, {}, 0

    monkeypatch.setitem(cli._RUNNERS, "check", record)
    monkeypatch.setenv("CRITFORM_TOL_INEQ", "0.5")
    report, _, _ = cli.run(JobConfig(command="check", seed=1))
    assert report["results"]["seen"] == 0.5
    assert report["provenance"]["env_overrides"] == {"tol_ineq": 0.5}
    assert report["provenance"]["tolerances"]["tol_ineq"] == 0.5


def test_tol_override_fails_the_hardy_pencil_gate(tmp_path):
    # the pencil top of the optimal weight is exactly 1 > 1 + (-0.5)
    prefix = str(tmp_path / "hw")
    code = main(["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
                 "--seed", "11", "--tol", "tol_eig=-0.5", "--tol", "tol_ineq=-0.5",
                 "--output", prefix])
    assert code == 1
    assert read_json(prefix + ".json")["results"]["verification"]["passed"] is False


@pytest.mark.parametrize("via", ["job", "env"])
def test_tol_cap_override_reaches_classify_and_ground_state(via, monkeypatch, capsys):
    # a floor of 10 lies above every capacity of this 3-D trace: Critical
    params = {"d": 3, "radii": [4, 8, 12, 16]}
    args = ["ground-state", "--family", "lattice", "--param", "d=3",
            "--param", "radii=[4,8,12,16]", "--window", "2", "--tol", "tol_gs=1"]
    overrides = {}
    if via == "env":
        monkeypatch.setenv("CRITFORM_TOL_CAP", "10")
    else:
        overrides = {"tol_cap": 10.0}
        args += ["--tol", "tol_cap=10"]
    with cf.job_tolerances(overrides):
        assert cf.classify(cf.builtin_family("lattice", params)).verdict == "Critical"
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["tolerances"]["tol_cap"] == 10.0
    assert doc["results"]["levels_used"] == [4, 8, 12, 16]


def test_schedule_flag_reaches_green_and_excessive(tmp_path, capsys):
    # the free pair has a singular zero-shift system: the trace walks the schedule
    free = cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]})
    pair = tmp_path / "pair.json"
    pair.write_text(emit_graph_document(free), encoding="utf-8")
    assert main(["green", "--input", str(pair), "--source", "a",
                 "--schedule", "1,1e-3,0.5"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["status"] == "diverges"
    assert [a for a, _ in res["alpha_trace"]] == list(cf.default_alpha_schedule(1, 1e-3, 0.5))

    form = cf.path_form(15)
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(form), encoding="utf-8")
    deep = cf.construct_excessive(form, g={"1": 1.0},
                                  alpha_schedule=cf.default_alpha_schedule(1.0, 1e-12, 0.5))
    assert main(["excessive", "--input", str(graph), "--source", "1",
                 "--schedule", "1.0,1e-12,0.5"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["values"] == {v: float(x) for v, x in zip(form.vertices, deep.function.values)}
    default = cf.construct_excessive(form, g={"1": 1.0}).function.values
    assert not np.array_equal(deep.function.values, default)


@pytest.mark.parametrize("command", ["green", "excessive"])
def test_malformed_schedule_is_a_bad_config(command, tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(5)), encoding="utf-8")
    assert main([command, "--input", str(graph), "--source", "1",
                 "--schedule", "1,0.5"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "BadConfig" and "start,stop,ratio" in err["message"]


def test_hardy_weight_uniform_g(tmp_path):
    prefix = str(tmp_path / "hw")
    assert main(["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
                 "--seed", "11", "--uniform-g", "--output", prefix]) == 0
    res = read_json(prefix + ".json")["results"]
    form = cf.dirichlet_path(50)
    hw = cf.hardy_weight(form, np.where(form.boundary_mask, 0.0, 1.0), seed=11)
    assert res["g"] == "uniform"
    assert res["verification"]["passed"] is True
    assert res["weight"] == {v: float(x) for v, x in zip(form.vertices, hw.values)}


def test_classify_subcritical_with_artifacts_reports_the_hardy_summary(tmp_path):
    res = _run_twice(tmp_path, ["classify", "--with-artifacts", "--family", "dirichlet_path",
                                "--param", "radii=[25,50,100]"])
    assert res["verdict"] == "Subcritical"
    assert "ground_state" not in res
    top = cf.dirichlet_path(100)
    hw = cf.hardy_weight(top, {"1": 1.0}, n_samples=100, seed=0)
    assert res["hardy_summary"] == {
        "alpha_used": 0.0,
        "max_weight": float(np.max(hw.values)),
        "rho_sampled": hw.verification.rho_sampled,
        "passed": True,
    }


def test_decay_verifies_a_reused_profile_report(pd_form_file, tmp_path):
    prof = str(tmp_path / "prof")
    assert main(["alpha-profile", "--input", pd_form_file, "--seed", "5",
                 "--output", prof]) == 0
    args = ["decay", "--profile-report", prof + ".json", "--t-grid", "1e-3,1e-2"]
    assert main(args + ["--output", str(tmp_path / "plain")]) == 0
    assert main(args + ["--input", pd_form_file, "--verify",
                        "--output", str(tmp_path / "ver")]) == 0
    plain = read_json(str(tmp_path / "plain.json"))["results"]
    res = read_json(str(tmp_path / "ver.json"))["results"]
    assert res["xi"] == plain["xi"]
    assert res["verification"]["passed"] is True and res["verification"]["n_checks"] > 0


def test_csv_tables_follow_the_report_on_stdout(pd_form_file, capsys):
    assert main(["alpha-profile", "--input", pd_form_file, "--seed", "3",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    text, _, table = out.partition("r,alpha_cert,alpha_lb\n")
    prof = json.loads(text)["results"]["profile"]
    rows = [[float(x) for x in line.split(",")] for line in table.strip().split("\n")]
    assert rows == [list(row) for row in zip(prof["r"], prof["alpha_cert"], prof["alpha_lb"])]


def test_inconclusive_green_exits_2(tmp_path, monkeypatch, capsys):
    # no direct solve and a two-shift schedule: neither stabilized nor diverged
    monkeypatch.setattr(cf.resolvent, "direct_green_solve", lambda form, f: None)
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(20)), encoding="utf-8")
    assert main(["green", "--input", str(graph), "--source", "5",
                 "--schedule", "1,0.5,0.5"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "green",
                   "error": {"type": "GreenInconclusive", "message": doc["error"]["message"]}}
    assert "neither stabilized nor diverged" in doc["error"]["message"]


def test_unexpected_exception_exits_1_with_an_error_report(monkeypatch, capsys):
    def broken(job):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    assert main(["classify", "--family", "lattice", "--param", "d=1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "classify", "error": {"type": "RuntimeError", "message": "boom"}}


@pytest.mark.parametrize("command", [["classify"], ["green", "--source", "1"]],
                         ids=["classify", "green"])
def test_input_and_family_together_are_a_bad_config(command, tmp_path, capsys):
    # classify read the family and green the file, and both echoed both
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(12)), encoding="utf-8")
    assert main(command + ["--input", str(graph), "--family", "dirichlet_path"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {"type": "BadConfig",
                            "message": "give --input FILE or --family NAME, not both"}


@pytest.mark.parametrize("command", ["classify", "ground-state"])
def test_level_is_a_bad_config_for_the_exhaustion_commands(command, capsys):
    # both run every level of the family, so a --level would go unread
    assert main([command, "--family", "lattice", "--param", "d=1", "--level", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "BadConfig"
    assert "--level" in doc["error"]["message"]


def test_in_process_job_reports_what_main_reports(tmp_path, capsys):
    # run() completes the options from the parser's defaults, so the echo
    # of an in-process job is the echo of the same job on the command line
    assert main(["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
                 "--seed", "4"]) == 0
    from_main = capsys.readouterr().out
    report, _, code = cli.run(JobConfig(command="hardy-weight", seed=4, options={
        "family": "dirichlet_path", "params": {"radii": [25, 50]}}))
    assert code == 0
    assert cf.reports.canonical_json(report) == from_main
    assert report["config"]["options"]["n_samples"] == 500


@pytest.mark.parametrize("text, where", [
    (None, "cannot read"),
    ('{"results": {"profile": ', "line 1, column 25"),
], ids=["missing", "truncated"])
def test_unreadable_profile_report_is_a_parse_error(text, where, pd_form_file, tmp_path,
                                                    capsys):
    path = tmp_path / "prof.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["decay", "--profile-report", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError"
    assert str(path) in error["message"] and where in error["message"]
    with pytest.raises(cf.errors.ParseError, match=where):
        cf.reports.parse_profile_file(str(path))


def test_every_runner_is_a_subcommand_and_the_only_valid_command():
    parser = cli._build_parser()
    for command in cli._RUNNERS:
        assert parser.parse_args([command]).command == command
        cli.validate_job(JobConfig(command=command, seed=0))
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli._RUNNERS)
    with pytest.raises(cf.errors.BadConfig, match=r"expected one of \('classify', "):
        cli.validate_job(JobConfig(command="transmogrify"))


@pytest.mark.parametrize("argv", [["classify", "--bogus"], ["check", "--seed", "x"], []],
                         ids=["unknown-flag", "bad-seed", "no-command"])
def test_usage_error_is_a_bad_config_report(argv, capsys):
    # argparse exited 2, the code of an inconclusive result
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] is None and doc["error"]["type"] == "BadConfig"


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: critform" in capsys.readouterr().out


@pytest.fixture
def input_files(tmp_path, kernel_file):
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph_document(cf.path_form(12)), encoding="utf-8")
    return {"graph": str(graph), "kernel": kernel_file}


@pytest.mark.parametrize("command, given, flags, options, named", [
    ("harnack", "kernel", ["--family", "lattice", "--param", "d=1"],
     {"family": "lattice", "params": {"d": 1}}, "--family"),
    ("green", "graph", ["--source", "1", "--param", "d=2"],
     {"source": "1", "params": {"d": 2}}, "--param"),
    ("classify", "graph", ["--level", "3", "--param", "d=9"],
     {"level": 3, "params": {"d": 9}}, "--level"),
], ids=["harnack-family", "green-param", "classify-level"])
def test_a_flag_the_input_does_not_read_is_a_bad_config(command, given, flags, options, named,
                                                        input_files, capsys):
    # each job ran at exit 0, and all but classify echoed the flag it never read
    assert main([command, "--input", input_files[given], *flags]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "BadConfig" and named in error["message"]
    with pytest.raises(cf.errors.BadConfig, match=named):
        cli.run(JobConfig(command=command, input=input_files[given], options=options))


def test_decay_from_a_profile_report_reads_no_input(pd_form_file, tmp_path, capsys):
    # the job echoed an --input that it never read
    prof = str(tmp_path / "prof")
    assert main(["alpha-profile", "--input", pd_form_file, "--seed", "5",
                 "--output", prof]) == 0
    assert main(["decay", "--profile-report", prof + ".json", "--input", pd_form_file]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "BadConfig" and "--input" in error["message"]
    with pytest.raises(cf.errors.BadConfig, match="--input"):
        cli.run(JobConfig(command="decay", input=pd_form_file,
                          options={"profile_report": prof + ".json"}))


def test_decay_reports_the_default_seed_it_ran_with(pd_form_file, capsys):
    # the job ran with seed 0 and reported "seed": null
    assert main(["decay", "--input", pd_form_file]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["config"]["seed"] == 0 and doc["provenance"]["seed"] == 0
    report, _, _ = cli.run(JobConfig(command="decay", input=pd_form_file))
    assert cf.reports.canonical_json(report) == out


INPUT_FLAGS = ("family", "params", "level")


def _input_flag_read(node):
    """The input flag that an AST node reads, if any: ``job.input``, or a
    family flag read by ``x["level"]``, ``x.get("level")`` or ``getattr(x, "level")``."""
    if isinstance(node, ast.Attribute) and node.attr == "input" and \
            isinstance(node.value, ast.Name) and node.value.id == "job":
        return "job.input"
    keys = ([node.slice] if isinstance(node, ast.Subscript)
            else node.args if isinstance(node, ast.Call) else [])
    return next((key.value for key in keys
                 if isinstance(key, ast.Constant) and key.value in INPUT_FLAGS), None)


def test_only_the_input_rule_reads_the_input_flags():
    # _input_of decides every input flag; the two loaders that call it read
    # --level to pick a family level, and run() echoes job.input
    readers = set()
    for fn in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            readers |= {(fn.name, flag) for flag in map(_input_flag_read, ast.walk(fn)) if flag}
    allowed = {(fn, flag) for fn in ("_input_of", "_load_form", "_load_exhaustion")
               for flag in ("job.input", *INPUT_FLAGS)} | {("run", "job.input")}
    assert readers <= allowed
    assert {flag for fn, flag in readers if fn == "_input_of"} == {"job.input", *INPUT_FLAGS}
