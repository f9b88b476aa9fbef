"""Documents and their byte-stable serialization.

Graph, kernel-operator and alpha-profile documents are JSON objects; reports
are canonically serialized JSON (sorted keys, fixed indentation, trailing
newline) so identical (input, seed, version) runs emit identical bytes.
Wall-clock timing goes to stderr, never into a report.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .forms import GraphForm, build_form
from .kernel_ops import KernelOperator
from .weak_ineq import AlphaProfile

__all__ = [
    "parse_graph_file",
    "parse_graph_text",
    "canonical_graph_spec",
    "emit_graph_document",
    "parse_kernel_file",
    "parse_profile_file",
    "canonical_json",
    "jsonable",
    "csv_table",
]


# ---------------------------------------------------------------------------
# documents: one JSON object each, errors named by origin, line and column
# ---------------------------------------------------------------------------

def _json_object(text: str, origin: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{origin}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: top level must be an object")
    return doc


def _json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return _json_object(text, path)


def parse_graph_text(text: str, origin: str = "<string>") -> GraphForm:
    return build_form(_json_object(text, origin))


def parse_graph_file(path: str) -> GraphForm:
    return build_form(_json_file(path))


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


def parse_kernel_file(path: str) -> KernelOperator:
    """Dense kernel matrix with sidecar measures: JSON object with fields
    `kernel` (list of rows), `mu`, `nu`, optional `p` (default 2)."""
    doc = _json_file(path)
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


def parse_profile_file(path: str) -> AlphaProfile:
    """The profile of an `alpha-profile` report: `results.profile` (`r`,
    `alpha_cert`, optional `alpha_lb`), `results.alpha_base` and optional
    `results.mode` (default hardy)."""
    doc = _json_file(path)
    try:
        prof = doc["results"]["profile"]
        cert = np.array(prof["alpha_cert"], dtype=float)
        return AlphaProfile(
            r_grid=np.array(prof["r"], dtype=float), alpha_cert=cert,
            alpha_lb=np.array(prof.get("alpha_lb", np.zeros_like(cert)), dtype=float),
            mode=doc["results"].get("mode", "hardy"),
            alpha_base=float(doc["results"]["alpha_base"]), budget_exhausted=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: lacks a usable alpha profile: {exc}") from None


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
