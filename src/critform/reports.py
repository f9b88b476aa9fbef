"""File formats, job configuration, and byte-stable report emission.

Graph documents and kernel-operator documents are JSON; reports are
canonically serialized JSON (sorted keys, fixed indentation, trailing
newline) so identical (input, seed, version) runs emit identical bytes.
Wall-clock timing goes to stderr, never into a report.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, env_overrides
from .errors import BadConfig, ParseError
from .forms import GraphForm, build_form
from .kernel_ops import KernelOperator

__all__ = [
    "JobConfig",
    "COMMANDS",
    "RANDOMIZED_COMMANDS",
    "parse_graph_file",
    "parse_graph_text",
    "canonical_graph_spec",
    "emit_graph_document",
    "parse_kernel_file",
    "canonical_json",
    "jsonable",
    "provenance_block",
    "validate_job",
    "csv_table",
]

COMMANDS = (
    "classify",
    "green",
    "hardy-weight",
    "ground-state",
    "alpha-profile",
    "decay",
    "excessive",
    "harnack",
    "check",
)
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


def validate_job(job: JobConfig) -> None:
    if job.command not in COMMANDS:
        raise BadConfig(f"unknown command {job.command!r}; expected one of {COMMANDS}")
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


# ---------------------------------------------------------------------------
# graph documents
# ---------------------------------------------------------------------------

def parse_graph_text(text: str, origin: str = "<string>") -> GraphForm:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{origin}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: top level must be an object")
    return build_form(doc)


def parse_graph_file(path: str) -> GraphForm:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_graph_text(text, origin=path)


def canonical_graph_spec(form: GraphForm) -> dict:
    """Canonical document for a form: sorted vertices, sorted edges, full
    measure/potential maps.  Emitting, re-parsing and emitting again is
    byte-stable."""
    verts = list(form.vertices)
    edges = [
        [verts[int(i)], verts[int(j)], float(b)]
        for (i, j), b in zip(form.edge_index, form.weights)
    ]
    edges.sort(key=lambda e: (e[0], e[1]))
    spec = {
        "vertices": verts,
        "edges": edges,
        "mu": {v: float(m) for v, m in zip(verts, form.measure)},
        "potential": {v: float(c) for v, c in zip(verts, form.potential)},
        "dirichlet": sorted(form.dirichlet),
    }
    if form.name:
        spec["name"] = form.name
    return spec


def emit_graph_document(form: GraphForm) -> str:
    return canonical_json(canonical_graph_spec(form))


# ---------------------------------------------------------------------------
# kernel documents
# ---------------------------------------------------------------------------

def parse_kernel_file(path: str) -> KernelOperator:
    """Dense kernel matrix with sidecar measures: JSON object with fields
    `kernel` (list of rows), `mu`, `nu`, optional `p` (default 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    missing = {"kernel", "mu", "nu"} - set(doc)
    if missing:
        raise ParseError(f"{path}: missing fields {sorted(missing)}")
    unknown = set(doc) - {"kernel", "mu", "nu", "p", "name", "comment"}
    if unknown:
        raise ParseError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        kernel = np.array(doc["kernel"], dtype=float)
        mu = np.array(doc["mu"], dtype=float)
        nu = np.array(doc["nu"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: non-numeric data: {exc}") from None
    return KernelOperator(kernel=kernel, mu=mu, nu=nu, p=float(doc.get("p", 2.0)))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def jsonable(obj):
    """Recursively convert numpy scalars/arrays, tuples and dataclass-like
    values into plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(str(x) for x in obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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


def csv_table(header: list[str], rows) -> str:
    """Locale-independent CSV: comma separator, dot decimal, one header line."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(repr(float(x)))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
