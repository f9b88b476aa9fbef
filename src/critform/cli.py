"""Command-line entry point: one job per invocation, deterministic reports.

Exit codes: 0 definitive success, 2 inconclusive (more radius/schedule
needed), 1 errors and failed verifications.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .config import job_tolerances, tolerance, tolerances
from .criticality import agmon_ground_state, classify
from .errors import BadConfig, CritformError, DomainMismatch, GreenInconclusive
from .families import builtin_family, constant_exhaustion
from .forms import check_first_bd, evaluate_rows, is_invariant_set, sample_blocks
from .hardy import hardy_weight
from .kernel_ops import check_super_eigen, construct_excessive, harnack_sets, lambda_of
from .reports import (
    JobConfig,
    canonical_json,
    csv_table,
    jsonable,
    parse_graph_file,
    parse_kernel_file,
    provenance_block,
    validate_job,
)
from .resolvent import (
    check_resolvent_contraction,
    default_alpha_schedule,
    green_apply,
    is_excessive,
)
from .weak_ineq import AlphaProfile, alpha_profile, decay_rate, verify_decay

__all__ = ["main", "run"]


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise BadConfig(f"--param expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _parse_tols(pairs):
    tols = {}
    for item in pairs or ():
        if "=" not in item:
            raise BadConfig(f"--tol expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            tols[key] = float(raw)
        except ValueError:
            raise BadConfig(f"--tol value for {key!r} is not a number: {raw!r}") from None
    return tols


def _float_list(text, flag):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise BadConfig(f"{flag} expects a comma-separated list of numbers, got {text!r}") from None


def _schedule_from(text):
    if text is None:
        return None
    vals = _float_list(text, "--schedule")
    if len(vals) != 3:
        raise BadConfig("--schedule expects start,stop,ratio")
    return default_alpha_schedule(vals[0], vals[1], vals[2])


def _load_exhaustion(job: JobConfig):
    opts = job.options
    if opts.get("family"):
        fam = builtin_family(opts["family"], opts.get("params") or {})
        return fam
    if isinstance(job.input, str) and job.input:
        form = parse_graph_file(job.input)
        return constant_exhaustion(form)
    raise BadConfig("need --family NAME or --input FILE")


def _load_form(job: JobConfig):
    opts = job.options
    if isinstance(job.input, str) and job.input:
        return parse_graph_file(job.input), None
    if opts.get("family"):
        fam = builtin_family(opts["family"], opts.get("params") or {})
        level = opts.get("level")
        radius = int(level) if level is not None else fam.radii[-1]
        return fam.level(radius), fam.root
    raise BadConfig("need --input FILE or --family NAME")


def _delta_vector(form, vertex_id):
    vec = np.zeros(form.n)
    try:
        vec[form.index(vertex_id)] = 1.0
    except DomainMismatch:
        raise BadConfig(f"vertex {vertex_id!r} not in the graph") from None
    return vec


def _function_map(form, values):
    return {v: float(x) for v, x in zip(form.vertices, values)}


# ---------------------------------------------------------------------------
# per-command runners: each returns (results dict, extra tables, exit code)
# ---------------------------------------------------------------------------

def _run_classify(job):
    exhaustion = _load_exhaustion(job)
    report = classify(exhaustion, with_artifacts=bool(job.options.get("artifacts")))
    results = {
        "verdict": report.verdict,
        "reason": report.reason,
        "capacity_trace": [[int(r), float(c)] for r, c in report.capacity_trace],
        "fit": report.fit,
        "notes": report.notes,
    }
    if report.ground_state is not None:
        results["ground_state"] = report.ground_state
    if report.hardy_summary is not None:
        results["hardy_summary"] = report.hardy_summary
    code = 2 if report.verdict == "Inconclusive" else 0
    return results, {}, code


def _run_green(job):
    form, root = _load_form(job)
    source = job.options.get("source") or root
    if source is None:
        raise BadConfig("green needs --source VERTEX for file inputs")
    g = _delta_vector(form, source)
    schedule = _schedule_from(job.options.get("schedule"))
    result = green_apply(form, g, alpha_schedule=schedule)
    results = {
        "status": result.status,
        "source": source,
        "alpha_trace": [[float(a), float(v)] for a, v in result.alpha_trace],
        "detail": result.detail,
    }
    if result.finite:
        results["value_at_source"] = float(result.value[form.index(source)])
        results["value_sup"] = float(np.max(np.abs(result.value)))
        results["value"] = _function_map(form, result.value)
    return results, {}, 0


def _run_hardy(job):
    form, root = _load_form(job)
    source = job.options.get("source") or root
    if source is not None and not job.options.get("uniform_g"):
        g = _delta_vector(form, source)
        g_desc = f"delta at {source}"
    else:
        g = np.where(form.boundary_mask, 0.0, 1.0)
        g_desc = "uniform"
    hw = hardy_weight(form, g, n_samples=int(job.options.get("n_samples", 500)),
                      seed=int(job.seed))
    results = {
        "g": g_desc,
        "alpha_used": hw.alpha_used,
        "weight": _function_map(form, hw.values),
        "verification": {
            "rho_sampled": hw.verification.rho_sampled,
            "pencil_lambda_max": hw.verification.pencil_lambda_max,
            "passed": hw.verification.passed,
            "n_samples": hw.verification.n_samples,
            "note": hw.verification.note,
        },
    }
    return results, {}, 0 if hw.verification.passed else 1


def _run_ground_state(job):
    exhaustion = _load_exhaustion(job)
    window = int(job.options.get("window", 10))
    gs = agmon_ground_state(exhaustion, window)
    results = {
        "root": gs.root,
        "window_radius": gs.window_radius,
        "levels_used": [int(r) for r in gs.levels_used],
        "residual_sup": gs.residual_sup,
        "values": {v: float(x) for v, x in gs.as_mapping().items()},
    }
    return results, {}, 0


def _r_grid(job):
    spec = job.options.get("r_grid")
    if not spec:
        return None
    lo, hi, count = _float_list(spec, "--r-grid")
    return np.geomspace(lo, hi, int(count))


def _run_alpha_profile(job):
    form, _ = _load_form(job)
    mode = job.options.get("mode", "hardy")
    profile = alpha_profile(form, r_grid=_r_grid(job), mode=mode, seed=int(job.seed))
    results = {
        "mode": profile.mode,
        "alpha_base": profile.alpha_base,
        "budget_exhausted": profile.budget_exhausted,
        "note": profile.note,
        "profile": {
            "r": [float(x) for x in profile.r_grid],
            "alpha_cert": [float(x) for x in profile.alpha_cert],
            "alpha_lb": [float(x) for x in profile.alpha_lb],
        },
    }
    tables = {"profile": csv_table(["r", "alpha_cert", "alpha_lb"], profile.rows())}
    return results, tables, 0


def _profile_from_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"cannot read profile report {path}: {exc}") from None
    try:
        prof = doc["results"]["profile"]
        r = np.array(prof["r"], dtype=float)
        cert = np.array(prof["alpha_cert"], dtype=float)
        lb = np.array(prof.get("alpha_lb", np.zeros_like(cert)), dtype=float)
        base = float(doc["results"]["alpha_base"])
        mode = doc["results"].get("mode", "hardy")
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfig(f"profile report {path} lacks a usable profile: {exc}") from None
    return AlphaProfile(r_grid=r, alpha_cert=cert, alpha_lb=lb, mode=mode,
                        alpha_base=base, budget_exhausted=False)


def _run_decay(job):
    t_vals = _float_list(job.options.get("t_grid", "0.1,1,10"), "--t-grid")
    prof_path = job.options.get("profile_report")
    seed = 0 if job.seed is None else int(job.seed)
    form = None
    if prof_path:
        profile = _profile_from_report(prof_path)
    else:
        form, _ = _load_form(job)
        profile = alpha_profile(form, r_grid=_r_grid(job), mode=job.options.get("mode", "hardy"),
                                seed=seed)
    curve = decay_rate(profile, t_vals)
    results = {
        "t": [float(t) for t in curve.t_grid],
        "xi": [float(x) for x in curve.xi],
        "alpha_base": profile.alpha_base,
    }
    code = 0
    if job.options.get("verify"):
        if form is None:
            form, _ = _load_form(job)
        h = np.where(form.boundary_mask, 0.0, 1.0)
        ver = verify_decay(form, h, curve, n_samples=int(job.options.get("n_samples", 50)),
                           seed=seed)
        results["verification"] = {
            "passed": ver.passed,
            "min_margin_rel": ver.min_margin_rel,
            "tight_points": [[t, m] for t, m in ver.tight_points],
            "n_checks": ver.n_checks,
        }
        code = 0 if ver.passed else 1
    tables = {"decay": csv_table(["t", "xi"], curve.rows())}
    return results, tables, code


def _run_excessive(job):
    form, root = _load_form(job)
    source = job.options.get("source") or root
    if source is not None and not job.options.get("uniform_g"):
        g = _delta_vector(form, source)
    else:
        g = None
    schedule = _schedule_from(job.options.get("schedule"))
    built = construct_excessive(form, g=g, alpha_schedule=schedule)
    results = {
        "reference_set": sorted(built.reference_set),
        "residual_min": built.residual_min,
        "stabilization_gap": built.stabilization_gap,
        "excessive": built.excessive,
        "fatou_t": [float(t) for t in built.fatou_t],
        "fatou_max_violation": built.fatou_max_violation,
        "values": {v: float(x) for v, x in zip(built.function.vertices,
                                               built.function.values)},
    }
    return results, {}, 0 if built.excessive else 1


def _run_harnack(job):
    if not isinstance(job.input, str) or not job.input:
        raise BadConfig("harnack needs --input KERNEL_FILE")
    op = parse_kernel_file(job.input)
    lam, witness = lambda_of(op)
    target = float(job.options.get("target_mass", 0.5))
    cert = harnack_sets(op, target, lam)
    excess = check_super_eigen(op, lam, witness)
    members = list(cert.members)
    inside = witness[members]
    harnack_lhs = float(np.sum(inside * op.mu[members]))
    harnack_rhs = float(cert.D * np.min(inside))
    results = {
        "p": op.p,
        "lambda": lam,
        "witness_excess": excess,
        "set": members,
        "c": cert.c,
        "D": cert.D,
        "mass_fraction": cert.mass_fraction,
        "harnack_lhs": harnack_lhs,
        "harnack_rhs": harnack_rhs,
        "harnack_holds": bool(harnack_lhs <= harnack_rhs * (1 + tolerance("tol_ineq"))),
    }
    return results, {}, 0 if results["harnack_holds"] else 1


def _run_check(job):
    from .families import random_connected_form

    seed = int(job.seed)
    n_forms = int(job.options.get("n_forms", 10))
    n_samples = int(job.options.get("n_samples", 50))
    rng = np.random.default_rng(seed)
    tol = tolerance("tol_ineq")
    worst_bd = -np.inf            # max of q(|f|) - q(f); must stay <= tol
    worst_lattice = np.inf        # min lattice gap; must stay >= -tol
    contraction_fail = 0
    invariant_mismatch = 0
    excessivity_disagree = 0
    for k in range(n_forms):
        form = random_connected_form(int(rng.integers(5, 40)), seed=seed + 1000 + k,
                                     signed_potential=bool(k % 2))
        worst_bd = max(worst_bd, check_first_bd(form, n_samples=n_samples, seed=seed + k))
        act = form.active
        for P in sample_blocks(rng, max(n_samples // 10, 3), 2 * act.size):
            F, G = P[:, :act.size], P[:, act.size:]
            gaps = (evaluate_rows(form, F) + evaluate_rows(form, G)
                    - evaluate_rows(form, np.minimum(F, G)) - evaluate_rows(form, np.maximum(F, G)))
            worst_lattice = min(worst_lattice, float(gaps.min()))
        size = int(rng.integers(1, form.n))
        subset = [form.vertices[i] for i in rng.choice(form.n, size=size, replace=False)]
        rep = is_invariant_set(form, subset)
        # each verdict against its evidence: a witness that raises the energy,
        # or no sample that does
        if (rep.corroboration_gap > tol) if rep.invariant else (rep.witness_gap <= tol):
            invariant_mismatch += 1
        f = np.zeros(form.n)
        f[act] = rng.standard_normal(act.size)
        con = check_resolvent_contraction(form, f, alpha=float(rng.uniform(0.1, 2.0)))
        if not (con.energy_ok and con.defect_ok):
            contraction_fail += 1
        h = np.abs(rng.uniform(0.5, 2.0, form.n))
        h = np.where(form.boundary_mask, 0.0, h)
        exc = is_excessive(form, h)
        if not exc.agree:
            excessivity_disagree += 1
    violations = int(worst_bd > tol) + int(worst_lattice < -tol) + \
        contraction_fail + invariant_mismatch + excessivity_disagree
    results = {
        "n_forms": n_forms,
        "first_bd_worst_gap": float(worst_bd),
        "lattice_min_gap": float(worst_lattice),
        "invariant_set_mismatches": invariant_mismatch,
        "resolvent_contraction_failures": contraction_fail,
        "excessivity_test_disagreements": excessivity_disagree,
        "violations": violations,
    }
    return results, {}, 0 if violations == 0 else 1


_RUNNERS = {
    "classify": _run_classify,
    "green": _run_green,
    "hardy-weight": _run_hardy,
    "ground-state": _run_ground_state,
    "alpha-profile": _run_alpha_profile,
    "decay": _run_decay,
    "excessive": _run_excessive,
    "harnack": _run_harnack,
    "check": _run_check,
}


def run(job: JobConfig) -> tuple[dict, dict, int]:
    """Dispatch a validated job; returns (report, csv tables, exit code).

    The job's tolerance overrides apply to every gate while it runs, and the
    provenance echoes the table and environment as read when it started."""
    validate_job(job)
    with job_tolerances(job.tolerances):
        results, tables, code = _RUNNERS[job.command](job)
        provenance = provenance_block(job.seed, tolerances())
    report = {
        "command": job.command,
        "config": {
            "input": job.input,
            "seed": job.seed,
            "tolerances": {k: float(v) for k, v in sorted(job.tolerances.items())},
            "format": job.format,
            "options": jsonable({k: job.options[k] for k in sorted(job.options)}),
        },
        "results": results,
        "provenance": provenance,
    }
    return report, tables, code


def _emit(report: dict, tables: dict, job: JobConfig) -> None:
    text = canonical_json(report)
    if job.output:
        with open(job.output + ".json", "w", encoding="utf-8") as fh:
            fh.write(text)
        if job.format == "csv":
            for name, table in tables.items():
                with open(f"{job.output}.{name}.csv", "w", encoding="utf-8") as fh:
                    fh.write(table)
    else:
        sys.stdout.write(text)
        if job.format == "csv":
            for table in tables.values():
                sys.stdout.write(table)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="critform",
        description="criticality analysis for quadratic forms on weighted graphs",
    )
    parser.add_argument("--version", action="version", version=f"critform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="graph document (JSON)")
            p.add_argument("--family", help="built-in family name")
            p.add_argument("--param", action="append", metavar="K=V",
                           help="family parameter (repeatable; JSON values)")
            p.add_argument("--level", type=int, help="exhaustion level for form commands")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="K=V",
                       help="tolerance override (repeatable)")
        p.add_argument("--output", help="output path prefix")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("classify", help="classify a form family along its exhaustion")
    common(p)
    p.add_argument("--with-artifacts", action="store_true", dest="artifacts",
                   help="attach ground state / Hardy summaries to the verdict")

    p = sub.add_parser("green", help="Green operator column at a source vertex")
    common(p)
    p.add_argument("--source", help="source vertex id")
    p.add_argument("--schedule", help="alpha schedule start,stop,ratio")

    p = sub.add_parser("hardy-weight", help="generate and verify a Hardy weight")
    common(p)
    p.add_argument("--source", help="source vertex for g (default: family root)")
    p.add_argument("--uniform-g", action="store_true", help="use g = 1 instead of a delta")
    p.add_argument("--n-samples", type=int, default=500)

    p = sub.add_parser("ground-state", help="Agmon ground state of a critical family")
    common(p)
    p.add_argument("--window", type=int, default=10)

    p = sub.add_parser("alpha-profile", help="weak Hardy/Poincare inequality profile")
    common(p)
    p.add_argument("--mode", choices=["hardy", "poincare"], default="hardy")
    p.add_argument("--r-grid", help="lo,hi,count geometric grid")

    p = sub.add_parser("decay", help="semigroup decay rate from a profile")
    common(p)
    p.add_argument("--mode", choices=["hardy", "poincare"], default="hardy")
    p.add_argument("--r-grid", help="lo,hi,count geometric grid")
    p.add_argument("--t-grid", default="0.1,1,10")
    p.add_argument("--profile-report", help="reuse a previously emitted alpha-profile report")
    p.add_argument("--verify", action="store_true",
                   help="check the decay bound against the actual semigroup")
    p.add_argument("--n-samples", type=int, default=50)

    p = sub.add_parser("excessive", help="liminf construction of an excessive function")
    common(p)
    p.add_argument("--source", help="source vertex for g (default: uniform g)")
    p.add_argument("--uniform-g", action="store_true")
    p.add_argument("--schedule", help="alpha schedule start,stop,ratio")

    p = sub.add_parser("harnack", help="weak Harnack certificate for a kernel operator")
    common(p)
    p.add_argument("--target-mass", type=float, default=0.5)

    p = sub.add_parser("check", help="randomized structural self-checks")
    common(p, needs_input=False)
    p.add_argument("--n-forms", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=50)
    return parser


# flags every command shares; the rest of the parsed namespace is the job's options
_COMMON_FLAGS = {"command", "input", "family", "param", "level", "seed", "tol", "output",
                 "format"}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        options = {key: val for key, val in vars(args).items()
                   if key not in _COMMON_FLAGS and val is not None and val is not False}
        if getattr(args, "family", None):
            options["family"] = args.family
            params = _parse_params(getattr(args, "param", None))
            if getattr(args, "level", None) is not None:
                options["level"] = args.level
            if params:
                options["params"] = params
        job = JobConfig(
            command=args.command,
            input=getattr(args, "input", None),
            seed=args.seed,
            tolerances=_parse_tols(args.tol),
            output=args.output,
            format=args.format,
            options=options,
        )
        report, tables, code = run(job)
        _emit(report, tables, job)
    except GreenInconclusive as exc:
        _emit_error(args, exc, "GreenInconclusive")
        code = 2
    except CritformError as exc:
        _emit_error(args, exc, type(exc).__name__)
        code = 1
    except Exception as exc:  # keep the contract: machine-readable + nonzero
        _emit_error(args, exc, type(exc).__name__)
        code = 1
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


def _emit_error(args, exc, kind) -> None:
    body = canonical_json({
        "command": getattr(args, "command", None),
        "error": {"type": kind, "message": str(exc)},
    })
    output = getattr(args, "output", None)
    if output:
        with open(output + ".json", "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


if __name__ == "__main__":
    sys.exit(main())
