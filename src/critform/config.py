"""Default tolerances, environment overrides and per-job overrides."""
from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar

# Every threshold that gates a verdict lives here so reports can echo it.
DEFAULT_TOLERANCES: dict[str, float] = {
    "tol_psd": 1e-10,    # nonnegativity slack, relative to an operator-norm bound
    "tol_ineq": 1e-10,   # inequality slack, absolute after unit-measure normalization
    "tol_solve": 1e-9,   # linear-solve relative residual
    "tol_green": 1e-8,   # relative stabilization of the vanishing-shift trace
    "tol_cap": 1e-6,     # capacity floor below which the limit counts as zero
    "tol_gs": 1e-6,      # ground-state window stabilization
    "tol_eig": 1e-8,     # certificate slack for pencil eigenvalues
    "tol_exc": 1e-8,     # excessivity residual slack
}

ENV_PREFIX = "CRITFORM_TOL_"

# Table of the job in progress, resolved once when the job starts.
_JOB_TABLE: ContextVar[dict[str, float] | None] = ContextVar("job_tolerance_table", default=None)


def env_overrides() -> dict[str, float]:
    """Collect recognized environment overrides (echoed into reports)."""
    found: dict[str, float] = {}
    for key in DEFAULT_TOLERANCES:
        raw = os.environ.get(ENV_PREFIX + key[len("tol_"):].upper())
        if raw is not None:
            found[key] = float(raw)
    return found


@contextlib.contextmanager
def job_tolerances(overrides: dict[str, float]):
    """Resolve defaults, environment and ``overrides`` once; every
    :func:`tolerances` call inside the block starts from that table."""
    token = _JOB_TABLE.set(tolerances(overrides))
    try:
        yield
    finally:
        _JOB_TABLE.reset(token)


def tolerances(overrides: dict[str, float] | None = None) -> dict[str, float]:
    """Resolved tolerance table: defaults, then environment, then the running
    job's overrides (all three as resolved when the job started), then
    explicit overrides.  Each call returns a fresh dict."""
    table = _JOB_TABLE.get()
    tols = {**DEFAULT_TOLERANCES, **env_overrides()} if table is None else dict(table)
    for key, val in (overrides or {}).items():
        if key not in tols:
            raise KeyError(f"unknown tolerance key: {key!r}")
        tols[key] = float(val)
    return tols
