"""Command-line entry point: one job per invocation, deterministic reports.

This module knows the jobs: each command, its options and their defaults,
and which input it reads; ``reports`` knows the documents.

Exit codes: 0 definitive success, 2 inconclusive (more radius/schedule
needed), 1 errors (usage errors included) and failed verifications.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, env_overrides, job_tolerances, tolerance, tolerances
from .criticality import Exhaustion, agmon_ground_state, classify
from .errors import BadConfig, DomainMismatch, GreenInconclusive
from .families import builtin_family, constant_exhaustion, random_connected_form
from .forms import check_first_bd, evaluate_rows, is_invariant_set, sample_blocks
from .hardy import hardy_weight
from .kernel_ops import check_super_eigen, construct_excessive, harnack_sets, lambda_of
from .reports import (
    canonical_json,
    csv_table,
    jsonable,
    parse_graph_file,
    parse_kernel_file,
    parse_profile_file,
)
from .resolvent import (
    check_resolvent_contraction,
    default_alpha_schedule,
    green_apply,
    is_excessive,
)
from .weak_ineq import alpha_profile, decay_rate, verify_decay

__all__ = ["JobConfig", "RANDOMIZED_COMMANDS", "main", "provenance_block", "run",
           "validate_job"]

# commands whose outputs depend on sampled randomness
RANDOMIZED_COMMANDS = ("hardy-weight", "alpha-profile", "check")


@dataclass
class JobConfig:
    command: str
    input: str | None = None             # graph or kernel document path; None for --family
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"
    options: dict = field(default_factory=dict)   # per-command extras


def _key_value(convert):
    """The argparse type of a repeatable K=V flag: the pair (K, convert(V))."""
    def key_value(item):
        key, sep, raw = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expects key=value, got {item!r}")
        return key, convert(raw)
    return key_value


def _json_or_text(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


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


# the input flags that each kind of input reads
_READS = {None: set(), "kernel": {"--input"}, "exhaustion": {"--input", "--family", "--param"},
          "form": {"--input", "--family", "--param", "--level"}}


def _input_of(job: JobConfig, kind: str | None):
    """The job's one input, read as ``kind``: "form" (a graph document or one
    family level), "exhaustion" (a graph document or every family level),
    "kernel" (a kernel document) or None (no input).  A flag that the kind
    does not read is a BadConfig, and so are --input with --family and
    --param or --level without --family."""
    opts = job.options
    path, family = job.input, opts.get("family")
    params, level = opts.get("params"), opts.get("level")
    flags = {"--input": path, "--family": family, "--param": params, "--level": level}
    unread = sorted(flag for flag, value in flags.items()
                    if value is not None and flag not in _READS[kind])
    if unread:
        reads = ", ".join(sorted(_READS[kind])) or "no input"
        raise BadConfig(f"{job.command} reads {reads} here; drop {', '.join(unread)}")
    if path is not None and family is not None:
        raise BadConfig("give --input FILE or --family NAME, not both")
    if family is None and (params is not None or level is not None):
        raise BadConfig("--param and --level need --family")
    if kind is None:
        return None
    if family is not None:
        return builtin_family(family, params or {})
    if path is None:
        raise BadConfig(f"{job.command} needs --input KERNEL_FILE" if kind == "kernel"
                        else "need --input FILE or --family NAME")
    return parse_kernel_file(path) if kind == "kernel" else parse_graph_file(path)


def _load_exhaustion(job: JobConfig) -> Exhaustion:
    source = _input_of(job, "exhaustion")
    return source if isinstance(source, Exhaustion) else constant_exhaustion(source)


def _load_form(job: JobConfig):
    """(form, root): a graph document and None, or the family level of --level
    (default the top one) and the family's root."""
    source = _input_of(job, "form")
    if not isinstance(source, Exhaustion):
        return source, None
    level = job.options.get("level")
    return source.level(source.radii[-1] if level is None else int(level)), source.root


def _delta_vector(form, vertex_id):
    vec = np.zeros(form.n)
    try:
        vec[form.index(vertex_id)] = 1.0
    except DomainMismatch:
        raise BadConfig(f"vertex {vertex_id!r} not in the graph") from None
    return vec


def _point_source(job: JobConfig):
    """(form, source, g) for green, hardy-weight and excessive: g is a delta at
    --source, else at the family root; with neither, or with --uniform-g, there
    is no source and g = 1 off the Dirichlet set."""
    form, root = _load_form(job)
    source = job.options.get("source") or root
    if source is None or job.options.get("uniform_g"):
        return form, None, np.where(form.boundary_mask, 0.0, 1.0)
    return form, source, _delta_vector(form, source)


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
    return results, {}, 2 if report.verdict == "Inconclusive" else 0


def _run_green(job):
    form, source, g = _point_source(job)
    if source is None:
        raise BadConfig("green needs --source VERTEX for file inputs")
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
    form, source, g = _point_source(job)
    hw = hardy_weight(form, g, n_samples=int(job.options["n_samples"]), seed=int(job.seed))
    results = {
        "g": "uniform" if source is None else f"delta at {source}",
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
    gs = agmon_ground_state(exhaustion, int(job.options["window"]))
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
    profile = alpha_profile(form, r_grid=_r_grid(job), mode=job.options["mode"],
                            seed=int(job.seed))
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


def _run_decay(job):
    t_vals = _float_list(job.options["t_grid"], "--t-grid")
    prof_path = job.options.get("profile_report")
    verify = job.options.get("verify")
    # a reused profile report stands in for the form unless --verify samples it
    form = _load_form(job)[0] if verify or not prof_path else _input_of(job, None)
    if prof_path:
        profile = parse_profile_file(prof_path)
    else:
        profile = alpha_profile(form, r_grid=_r_grid(job), mode=job.options["mode"],
                                seed=int(job.seed))
    curve = decay_rate(profile, t_vals)
    results = {
        "t": [float(t) for t in curve.t_grid],
        "xi": [float(x) for x in curve.xi],
        "alpha_base": profile.alpha_base,
    }
    code = 0
    if verify:
        h = np.where(form.boundary_mask, 0.0, 1.0)
        ver = verify_decay(form, h, curve, n_samples=int(job.options["n_samples"]),
                           seed=int(job.seed))
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
    form, _, g = _point_source(job)
    schedule = _schedule_from(job.options.get("schedule"))
    built = construct_excessive(form, g=g, alpha_schedule=schedule)
    results = {
        "reference_set": sorted(built.reference_set),
        "residual_min": built.residual_min,
        "stabilization_gap": built.stabilization_gap,
        "excessive": built.excessive,
        "fatou_t": [float(t) for t in built.fatou_t],
        "fatou_max_violation": built.fatou_max_violation,
        "values": _function_map(built.function, built.function.values),
    }
    return results, {}, 0 if built.excessive else 1


def _run_harnack(job):
    op = _input_of(job, "kernel")
    lam, witness = lambda_of(op)
    cert = harnack_sets(op, float(job.options["target_mass"]), lam)
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
    _input_of(job, None)     # the check draws its own random forms
    seed = int(job.seed)
    n_forms = int(job.options["n_forms"])
    n_samples = int(job.options["n_samples"])
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


def validate_job(job: JobConfig) -> None:
    if job.command not in _RUNNERS:
        raise BadConfig(f"unknown command {job.command!r}; expected one of {tuple(_RUNNERS)}")
    if job.format not in ("json", "csv"):
        raise BadConfig(f"format must be 'json' or 'csv', got {job.format!r}")
    unknown = set(job.tolerances) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise BadConfig(
            f"unknown tolerance keys: {sorted(unknown)}; "
            f"known: {sorted(DEFAULT_TOLERANCES)}"
        )
    if job.command in RANDOMIZED_COMMANDS and job.seed is None:
        raise BadConfig(f"command {job.command!r} is randomized: a seed is mandatory")


def provenance_block(seed: int | None, tolerances: dict) -> dict:
    """Everything a reader needs to reproduce the run; no wall time here —
    reports must be byte-stable.  Inside a job the environment overrides are
    those read when the job started."""
    env = env_overrides()
    return {
        "tool": "critform",
        "version": __version__,
        "seed": seed,
        "tolerances": {k: float(v) for k, v in sorted(tolerances.items())},
        "env_overrides": {k: env[k] for k in sorted(env)},
    }


def run(job: JobConfig) -> tuple[dict, dict, int]:
    """Dispatch a validated job; returns (report, csv tables, exit code).

    A seed and options the job leaves out take their command's parser
    defaults, so the report echoes what ran.  The job's tolerance overrides
    apply to every gate while it runs, and the provenance echoes the table
    and environment as read when it started."""
    validate_job(job)
    default = _default_job(job.command)
    job = replace(job, seed=default.seed if job.seed is None else job.seed,
                  options={**default.options, **job.options})
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


def _write(text: str, output: str | None, suffix: str) -> None:
    """Write to ``output + suffix``, or to stdout without --output."""
    if output:
        with open(output + suffix, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, tables: dict, job: JobConfig) -> None:
    _write(canonical_json(report), job.output, ".json")
    if job.format == "csv":
        for name, table in tables.items():
            _write(table, job.output, f".{name}.csv")


class _Parser(argparse.ArgumentParser):
    """A usage error is a BadConfig, reported like every other failure."""

    def error(self, message):
        raise BadConfig(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves no state in it."""
    parser = _Parser(
        prog="critform",
        description="criticality analysis for quadratic forms on weighted graphs",
    )
    parser.add_argument("--version", action="version", version=f"critform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, needs_input=True):
        """A subcommand with the flags every command shares."""
        p = sub.add_parser(name, help=summary)
        if needs_input:
            p.add_argument("--input", help="graph document (JSON)")
            p.add_argument("--family", help="built-in family name")
            p.add_argument("--param", action="append", dest="params", metavar="K=V",
                           type=_key_value(_json_or_text),
                           help="family parameter (repeatable; JSON values)")
            p.add_argument("--level", type=int, help="exhaustion level for form commands")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="K=V", type=_key_value(float),
                       help="tolerance override (repeatable)")
        p.add_argument("--output", help="output path prefix")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    p = command("classify", "classify a form family along its exhaustion")
    p.add_argument("--with-artifacts", action="store_true", dest="artifacts",
                   help="attach ground state / Hardy summaries to the verdict")

    p = command("green", "Green operator column at a source vertex")
    p.add_argument("--source", help="source vertex id")
    p.add_argument("--schedule", help="alpha schedule start,stop,ratio")

    p = command("hardy-weight", "generate and verify a Hardy weight")
    p.add_argument("--source", help="source vertex for g (default: family root)")
    p.add_argument("--uniform-g", action="store_true", help="use g = 1 instead of a delta")
    p.add_argument("--n-samples", type=int, default=500)

    p = command("ground-state", "Agmon ground state of a critical family")
    p.add_argument("--window", type=int, default=10)

    p = command("alpha-profile", "weak Hardy/Poincare inequality profile")
    p.add_argument("--mode", choices=["hardy", "poincare"], default="hardy")
    p.add_argument("--r-grid", help="lo,hi,count geometric grid")

    p = command("decay", "semigroup decay rate from a profile")
    p.set_defaults(seed=0)
    p.add_argument("--mode", choices=["hardy", "poincare"], default="hardy")
    p.add_argument("--r-grid", help="lo,hi,count geometric grid")
    p.add_argument("--t-grid", default="0.1,1,10")
    p.add_argument("--profile-report", help="reuse a previously emitted alpha-profile report")
    p.add_argument("--verify", action="store_true",
                   help="check the decay bound against the actual semigroup")
    p.add_argument("--n-samples", type=int, default=50)

    p = command("excessive", "liminf construction of an excessive function")
    p.add_argument("--source", help="source vertex for g (default: uniform g)")
    p.add_argument("--uniform-g", action="store_true")
    p.add_argument("--schedule", help="alpha schedule start,stop,ratio")

    p = command("harnack", "weak Harnack certificate for a kernel operator")
    p.add_argument("--target-mass", type=float, default=0.5)

    p = command("check", "randomized structural self-checks", needs_input=False)
    p.add_argument("--n-forms", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=50)
    return parser


# flags every command shares; the rest of the parsed namespace is the job's options
_COMMON_FLAGS = {"command", "input", "seed", "tol", "output", "format"}


def _job_of(args: argparse.Namespace) -> JobConfig:
    return JobConfig(
        command=args.command,
        input=getattr(args, "input", None),
        seed=args.seed,
        tolerances=dict(args.tol or ()),
        output=args.output,
        format=args.format,
        options={key: dict(val) if key == "params" else val
                 for key, val in vars(args).items()
                 if key not in _COMMON_FLAGS and val is not None and val is not False},
    )


@functools.cache
def _default_job(command: str) -> JobConfig:
    """A bare ``critform COMMAND``: its parser's defaults."""
    return _job_of(_build_parser().parse_args([command]))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = None     # a usage error leaves no command or output path to echo
    try:
        args = _build_parser().parse_args(argv)
        job = _job_of(args)
        report, tables, code = run(job)
        _emit(report, tables, job)
    except Exception as exc:  # keep the contract: machine-readable + nonzero
        _emit_error(args, exc)
        code = 2 if isinstance(exc, GreenInconclusive) else 1
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


def _emit_error(args, exc) -> None:
    body = canonical_json({
        "command": getattr(args, "command", None),
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })
    _write(body, getattr(args, "output", None), ".json")


if __name__ == "__main__":
    sys.exit(main())
