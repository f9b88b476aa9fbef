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

# (table, environment overrides) of the job in progress, both read when the job starts.
_JOB: ContextVar[tuple[dict, dict] | None] = ContextVar("job_tolerances", default=None)


def _env_value(key: str) -> str | None:
    """The raw environment override of ``key`` (``tol_gs`` -> ``CRITFORM_TOL_GS``)."""
    return os.environ.get(ENV_PREFIX + key[len("tol_"):].upper())


def env_overrides() -> dict[str, float]:
    """Recognized environment overrides (echoed into reports); inside a job,
    as they were read when the job started."""
    job = _JOB.get()
    if job is not None:
        return dict(job[1])
    found: dict[str, float] = {}
    for key in DEFAULT_TOLERANCES:
        raw = _env_value(key)
        if raw is not None:
            found[key] = float(raw)
    return found


@contextlib.contextmanager
def job_tolerances(overrides: dict[str, float]):
    """Resolve defaults, environment and ``overrides`` once; every
    :func:`tolerances` and :func:`env_overrides` call inside the block
    returns that resolution.  The one way to override a tolerance in code."""
    outer = _JOB.get()
    env = env_overrides()
    table = dict(outer[0]) if outer is not None else {**DEFAULT_TOLERANCES, **env}
    for key, val in overrides.items():
        if key not in table:
            raise KeyError(f"unknown tolerance key: {key!r}")
        table[key] = float(val)
    token = _JOB.set((table, env))
    try:
        yield
    finally:
        _JOB.reset(token)


def tolerances() -> dict[str, float]:
    """Resolved tolerance table: defaults, then environment, then the running
    job's overrides (all three as resolved when the job started).  Each call
    returns a fresh dict."""
    job = _JOB.get()
    return {**DEFAULT_TOLERANCES, **env_overrides()} if job is None else dict(job[0])


def tolerance(key: str) -> float:
    """``tolerances()[key]`` without building the table: the running job's
    value, else the default overridden by its one environment variable."""
    job = _JOB.get()
    if job is not None:
        return job[0][key]
    default = DEFAULT_TOLERANCES[key]
    raw = _env_value(key)
    return default if raw is None else float(raw)
