"""End-to-end CLI tests: in-process invocations of critform.cli.main."""
import json

import numpy as np
import pytest

import critform as cf
from critform import cli
from critform.config import job_tolerances
from critform.cli import main
from critform.reports import emit_graph_document
from critform.weak_ineq import AlphaProfile, decay_rate


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


def test_harnack_command(tmp_path):
    rng = np.random.default_rng(7)
    kernel = rng.uniform(0.5, 2.0, (4, 4))
    op_file = tmp_path / "op.json"
    op_file.write_text(json.dumps({
        "kernel": kernel.tolist(),
        "mu": [1.0, 1.0, 2.0, 1.0],
        "nu": [1.0, 1.5, 1.0, 1.0],
    }), encoding="utf-8")
    prefix = str(tmp_path / "har")
    code = main(["harnack", "--input", str(op_file), "--target-mass", "0.5",
                 "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["harnack_holds"] is True
    assert res["mass_fraction"] >= 0.5
    assert res["lambda"] > 0
    assert res["witness_excess"] >= -1e-10


def test_check_command(tmp_path):
    prefix = str(tmp_path / "chk")
    code = main(["check", "--seed", "3", "--n-forms", "4",
                 "--n-samples", "20", "--output", prefix])
    assert code == 0
    res = read_json(prefix + ".json")["results"]
    assert res["violations"] == 0
    assert res["first_bd_worst_gap"] <= 1e-10
    assert res["lattice_min_gap"] >= -1e-10


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
    with job_tolerances(overrides):
        assert cf.classify(cf.builtin_family("lattice", params)).verdict == "Critical"
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["tolerances"]["tol_cap"] == 10.0
    assert doc["results"]["levels_used"] == [4, 8, 12, 16]
