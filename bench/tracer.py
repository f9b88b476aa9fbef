"""Layer tracer driven from outside the package.

The tracer wraps the public functions of each critform layer, plus the two
SciPy kernels that carry most of the time (``scipy.sparse.linalg.splu`` and
``scipy.linalg.eigh``), by replacing the name in every critform module that
imported it.  Nothing under ``src/`` changes.  While installed it records one
span (name, start, end, parent) per call and a few computed counters; spans
are kept in flat arrays and written out once the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np
import scipy.linalg  # noqa: F401  (loaded so TARGETS can find it in sys.modules)
import scipy.sparse.linalg  # noqa: F401

# (span name, module, attribute).  One span name may cover several functions.
TARGETS = (
    ("families.generate", "critform.families", "lattice"),
    ("families.generate", "critform.families", "dirichlet_path"),
    ("families.generate", "critform.families", "path_form"),
    ("families.generate", "critform.families", "birth_death"),
    ("families.generate", "critform.families", "random_tree_form"),
    ("families.generate", "critform.families", "random_connected_form"),
    ("forms.build_form", "critform.forms", "build_form"),
    ("forms.evaluate", "critform.forms", "evaluate"),
    ("criticality.capacity", "critform.criticality", "capacity"),
    ("resolvent.resolvent_apply", "critform.resolvent", "resolvent_apply"),
    ("resolvent.is_excessive", "critform.resolvent", "is_excessive"),
    ("resolvent.green_apply", "critform.resolvent", "green_apply"),
    ("resolvent.direct_green_solve", "critform.resolvent", "direct_green_solve"),
    ("resolvent.semigroup_apply", "critform.resolvent", "semigroup_apply"),
    ("weak_ineq.alpha_profile", "critform.weak_ineq", "alpha_profile"),
    ("weak_ineq.decay_rate", "critform.weak_ineq", "decay_rate"),
    ("weak_ineq.verify_decay", "critform.weak_ineq", "verify_decay"),
    ("hardy.hardy_weight", "critform.hardy", "hardy_weight"),
    ("hardy.verify_hardy", "critform.hardy", "verify_hardy"),
    ("kernel_ops.construct_excessive", "critform.kernel_ops", "construct_excessive"),
    ("kernel_ops.heat_kernel_operator", "critform.kernel_ops", "heat_kernel_operator"),
    ("kernel_ops.lambda_of", "critform.kernel_ops", "lambda_of"),
    ("config.tolerances", "critform.config", "tolerances"),
    ("cli.run", "critform.cli", "run"),
    ("reports.canonical_json", "critform.reports", "canonical_json"),
    ("reports.parse_graph_file", "critform.reports", "parse_graph_file"),
    ("superlu.splu", "scipy.sparse.linalg", "splu"),
    ("lapack.eigh", "scipy.linalg", "eigh"),
)


def _count_fill(tracer, args, kwargs, lu):
    tracer.counters["superlu.splu.fill_nnz"] += lu.L.nnz + lu.U.nnz


def _count_n3(tracer, args, kwargs, result):
    tracer.counters["lapack.eigh.n3_sum"] += args[0].shape[0] ** 3


def _count_fallback(tracer, args, kwargs, result):
    if result is None:
        tracer.counters["resolvent.direct_green_solve.fallbacks"] += 1


def _count_pencil_skipped(tracer, args, kwargs, result):
    if result.pencil_lambda_max is None:
        tracer.counters["hardy.verify_hardy.pencil_skipped"] += 1


def _count_bytes(tracer, args, kwargs, text):
    tracer.counters["reports.canonical_json.bytes"] += len(text.encode("utf-8"))


AFTER = {
    "superlu.splu": _count_fill,
    "lapack.eigh": _count_n3,
    "resolvent.direct_green_solve": _count_fallback,
    "hardy.verify_hardy": _count_pencil_skipped,
    "reports.canonical_json": _count_bytes,
}

COUNTERS = (
    "superlu.splu.fill_nnz",
    "lapack.eigh.n3_sum",
    "resolvent.direct_green_solve.fallbacks",
    "hardy.verify_hardy.pencil_skipped",
    "reports.canonical_json.bytes",
)


class Tracer:
    """Spans and counters of the calls into each layer while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        self._installed = False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target, in every module that holds it, by a wrapper."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if not self._plan:
            holders = [m for name, m in list(sys.modules.items()) if m is not None
                       and (name == "critform" or name.startswith("critform."))]
            for span, module_name, attr in TARGETS:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                wrapper = self._wrapper_for(span, original)
                for holder in {id(m): m for m in (module, *holders)}.values():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._plan.append((holder, key, original, wrapper))
        for holder, key, _, wrapper in self._plan:
            setattr(holder, key, wrapper)
        self._installed = True

    def remove(self) -> None:
        """Put every original back."""
        for holder, key, original, _ in reversed(self._plan):
            setattr(holder, key, original)
        self._installed = False

    def _wrapper_for(self, span: str, fn):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        after = AFTER.get(span)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write spans (name, start, end, parent) and counters to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            **dict(zip(("name_id", "parent", "start", "end"), self._arrays())),
            counters=np.array(json.dumps(self.counters, sort_keys=True)),
        )
