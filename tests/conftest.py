"""Shared fixtures and small builders used across the test modules."""
import numpy as np
import pytest

import critform as cf
import critform.forms


def form_spec(form, name=None):
    """Rebuildable description of a GraphForm (edges/mu/potential/dirichlet)."""
    spec = {
        "vertices": list(form.vertices),
        "edges": [
            [form.vertices[i], form.vertices[j], float(b)]
            for (i, j), b in zip(form.edge_index, form.weights)
        ],
        "mu": {v: float(m) for v, m in zip(form.vertices, form.measure)},
        "potential": {v: float(c) for v, c in zip(form.vertices, form.potential)},
        "dirichlet": sorted(form.dirichlet),
    }
    if name:
        spec["name"] = name
    return spec


def shifted(form, sigma):
    """The sigma-shifted form: potential c -> c + sigma, everything else kept."""
    spec = form_spec(form)
    spec["potential"] = {v: c + sigma for v, c in spec["potential"].items()}
    return cf.build_form(spec)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list of positional
    arguments of every call made through it."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapped)
    return calls


def active_vector(form, rng, scale=1.0):
    """Random full-length vector vanishing on the Dirichlet set."""
    f = np.zeros(form.n)
    f[form.active] = scale * rng.standard_normal(form.n_active)
    return f


@pytest.fixture(params=["default", "split"])
def block_cap(request, monkeypatch):
    """Runs a test with the default sample-block cap and with a cap of 64
    entries, which splits every sample set into blocks of a few rows."""
    if request.param == "split":
        monkeypatch.setattr(critform.forms, "SAMPLE_BLOCK_ENTRIES", 64)


@pytest.fixture
def single_vertex():
    # one free vertex, potential 1: q(f) = f^2, L = identity
    return cf.build_form({"vertices": ["o"], "edges": [], "potential": {"o": 1.0}})


@pytest.fixture
def two_path():
    # free pair, zero potential: q(f) = (f(a) - f(b))^2
    return cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]})


@pytest.fixture
def triangle():
    return cf.build_form({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b", 1.0], ["b", "c", 2.0], ["a", "c", 0.5]],
        "mu": {"a": 1.0, "b": 2.0, "c": 0.5},
        "potential": {"a": 0.3, "b": 0.0, "c": 1.1},
    })


@pytest.fixture
def pinned_path():
    # 0 -- 1 -- 2 -- 3 with Dirichlet at 0; Green function is min(n, m)
    return cf.path_form(3)


@pytest.fixture
def all_dirichlet():
    # no free vertex: every admissible function vanishes
    return cf.build_form({"vertices": ["a", "b"], "edges": [["a", "b", 1.0]],
                          "dirichlet": ["a", "b"]})
