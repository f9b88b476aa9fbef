"""Tests of the benchmark itself: every workload at a tiny size with all of
its checks, the traced run's metric set and repeatable counts, and each check
rejecting a deliberately wrong value."""
import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import critform as cf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

DETERMINISTIC = ("superlu.splu.fill_nnz", "lapack.eigh.n3_sum",
                 "resolvent.direct_green_solve.fallbacks", "hardy.verify_hardy.pencil_skipped")


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_its_checks(name):
    result = run.run_workload(name, seed=5, seconds=0, trace=False, size="tiny")
    assert result["correct"]
    assert result["attempted"] >= 1
    # the only operations that may fail are the cli-mix --tol probes
    probes = workloads.CliMix.SIZES["tiny"][3] if name == "cli-mix" else 0
    assert result["failed"] <= probes
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first = run.run_workload("cli-mix", seed=2, seconds=0, trace=True, size="tiny")
    second = run.run_workload("cli-mix", seed=2, seconds=0, trace=True, size="tiny")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in first["metrics"]:
        if name.endswith(".calls") or name in DETERMINISTIC:
            assert first["metrics"][name] == second["metrics"][name], name
    # every job runs untraced and traced; only the traced run passes cli.run's wrapper
    assert first["metrics"]["cli.run.calls"]["value"] == first["attempted"] / 2


# ---------------------------------------------------------------------------
# each check rejects a wrong answer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def classify_report():
    wl = workloads.ClassifyLattice3D()
    item = wl.inputs(0, "tiny")[0][0]
    return wl, item, wl.op(item)


def test_classify_check_rejects_wrong_values(classify_report):
    wl, item, report = classify_report
    assert wl.check(item, report) == []
    trace = list(report.capacity_trace)
    r0, c0 = trace[0]
    bad = [
        dataclasses.replace(report, capacity_trace=((r0, c0 * (1 + 1e-6)), *trace[1:])),
        dataclasses.replace(report, capacity_trace=(*trace[:2], trace[1], *trace[3:])),
        dataclasses.replace(report, verdict="Critical"),
        dataclasses.replace(report, fit={**report.fit,
                                         "extrapolated_limit": 6 / workloads.WATSON_U3 + 6e-3}),
    ]
    for wrong in bad:
        assert wl.check(item, wrong)


def test_decay_check_rejects_wrong_values():
    wl = workloads.DecayProfile()
    item = wl.inputs(1, "tiny")[0][1]
    form, h, prof, curve, ver = wl.op(item)
    assert wl.check(item, (form, h, prof, curve, ver)) == []
    bad_lb = prof.alpha_lb.copy()
    bad_lb[0] = prof.alpha_cert[0] * 1.01 + 1e-12
    rising = prof.alpha_cert.copy()
    rising[-1] = rising[0] * 1.01 + 1e-12
    wrong = [
        (prof, curve, dataclasses.replace(ver, passed=False)),
        (dataclasses.replace(prof, alpha_base=prof.alpha_base * (1 + 1e-8)), curve, ver),
        (dataclasses.replace(prof, alpha_lb=bad_lb), curve, ver),
        (dataclasses.replace(prof, alpha_cert=rising), curve, ver),
        (prof, dataclasses.replace(curve, xi=curve.xi * 0.5), ver),
    ]
    for p, c, v in wrong:
        assert wl.check(item, (form, h, p, c, v))


def test_flat_profile_check_rejects_a_wrong_rate(monkeypatch):
    wl = workloads.DecayProfile()
    assert wl.run_problems() == []
    real = cf.decay_rate

    def off(profile, t_grid, **kw):
        curve = real(profile, t_grid, **kw)
        return dataclasses.replace(curve, xi=curve.xi * (1 + 1e-8))

    monkeypatch.setattr(workloads.cf, "decay_rate", off)
    assert wl.run_problems()


def test_hardy_check_rejects_wrong_values():
    wl = workloads.HardyTrees()
    items = wl.inputs(4, "tiny")[0]
    path_item, tree_item = items[0], items[1]
    for item in (path_item, tree_item):
        form, x, hw = wl.op(item)
        assert wl.check(item, (form, x, hw)) == []
        scaled = dataclasses.replace(hw, values=hw.values * 1.01)
        assert wl.check(item, (form, x, scaled))
        failed = dataclasses.replace(
            hw, verification=dataclasses.replace(hw.verification, passed=False))
        assert wl.check(item, (form, x, failed))
    form, x, hw = wl.op(path_item)
    off_top = dataclasses.replace(hw, verification=dataclasses.replace(
        hw.verification, pencil_lambda_max=1.0 + 1e-7))
    assert wl.check(path_item, (form, x, off_top))


def test_cli_checks_reject_wrong_reports(tmp_path):
    wl = workloads.CliMix(str(tmp_path))
    items = wl.inputs(7, "tiny")[0]
    codes = [wl.op(item) for item in items]
    by_kind = {}
    for item, code in zip(items, codes):
        by_kind.setdefault(item["kind"], (item, code))
    for item, code in zip(items, codes):
        if item["kind"] != "probe":
            assert wl.check(item, code) == []
    assert wl.round_problems(items) == []

    def rewrite(item, edit):
        doc = wl.report(item)
        edit(doc["results"])
        with open(item["output"] + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    check_item, _ = by_kind["check"]
    exc_item, _ = by_kind["excessive"]
    probe_item, _ = by_kind["probe"]

    # a probe fails unless its --tol overrides make the verification fail
    rewrite(probe_item, lambda r: r["verification"].update(passed=True))
    assert wl.failed(probe_item, 0)
    rewrite(probe_item, lambda r: r["verification"].update(passed=False))
    assert not wl.failed(probe_item, 1)

    assert wl.check(check_item, 1)
    assert wl.check(exc_item, 1)
    # a spike in h makes L h negative at a neighbour of the spiked vertex
    spiked = exc_item["doc"]["edges"][0][1]
    rewrite(exc_item, lambda r: r["values"].update(
        {spiked: 10 * max(r["values"].values())}))
    assert wl.check(exc_item, 0)
    rewrite(exc_item, lambda r: r.update(excessive=False))
    assert wl.check(exc_item, 0)

    rewrite(check_item, lambda r: r.update(violations=1))
    assert wl.check(check_item, 0)
    assert wl.round_problems(items)

