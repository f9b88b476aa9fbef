"""The four benchmark workloads: seeded inputs, the timed operation, and the
checks made apart from the program.

Each workload turns ``(seed, size)`` into a list of *blocks*, each a list of
operation inputs of the same make-up (same sizes and kinds, its own random
draws).  The harness in ``run.py`` runs one block per round, cycling through
the blocks, and times every operation; since every block has the same
make-up, the share of failed operations is fixed.

``check`` recomputes what it can with the benchmark's own NumPy/SciPy code
(its own matrix assembly, its own solves, ``scipy.linalg.expm``) and returns a
list of problems; an empty list means the outputs are correct.
"""
from __future__ import annotations

import contextlib
import json
import os

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import critform as cf
from critform import cli
from critform.families import (
    lattice_exhaustion,
    path_form,
    random_connected_form,
    random_tree_form,
)
from critform.hardy import PENCIL_CUTOFF

WATSON_U3 = 1.516386059151978   # Watson's simple-cubic lattice Green's constant
T_GRID = (0.1, 1.0, 10.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**64, stream])


def own_active_matrix(form):
    """Q on the non-Dirichlet vertices (sparse) and their indices, assembled
    from the form's raw edge list, measure and potential."""
    n = form.n
    i, j = form.edge_index[:, 0], form.edge_index[:, 1]
    b = form.weights
    deg = np.bincount(i, b, n) + np.bincount(j, b, n)
    Q = sp.csr_matrix((np.concatenate([-b, -b, deg + form.potential * form.measure]),
                       (np.concatenate([i, j, np.arange(n)]),
                        np.concatenate([j, i, np.arange(n)]))), shape=(n, n))
    act = np.flatnonzero([v not in form.dirichlet for v in form.vertices])
    return Q[act][:, act], act


class Workload:
    """One operation per input item; ``check`` returns a list of problems."""

    def failed(self, item, result) -> bool:
        """Whether an operation that returned counts as failed."""
        return False

    def round_problems(self, items) -> list[str]:
        """Checks across the operations of one round."""
        return []

    def run_problems(self) -> list[str]:
        """Checks made once per run."""
        return []


# ---------------------------------------------------------------------------
# classify-lattice3d
# ---------------------------------------------------------------------------

def box_capacity(R: int) -> float:
    """Capacity of the origin in the 3-D box {-R..R}^3 with the sup-norm shell
    clamped to zero: Q restricted to the interior is 6 I - adjacency."""
    m = 2 * R - 1                          # interior points per axis
    idx = np.arange(m ** 3).reshape(m, m, m)
    rows, cols = [], []
    for ax in range(3):
        a = np.take(idx, np.arange(m - 1), axis=ax).ravel()
        b = np.take(idx, np.arange(1, m), axis=ax).ravel()
        rows += [a, b]
        cols += [b, a]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A = (6.0 * sp.identity(m ** 3, format="csr")
         - sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(m ** 3, m ** 3)))
    origin = int(idx[R - 1, R - 1, R - 1])
    free = np.delete(np.arange(m ** 3), origin)
    A_ff = A[free][:, free].tocsc()
    A_f0 = A[free][:, [origin]].toarray().ravel()
    u = spla.spsolve(A_ff, -A_f0)
    return float(A[origin, origin] + A_f0 @ u)


class ClassifyLattice3D(Workload):
    """``classify`` on the 3-D lattice exhaustion."""

    SIZES = {"full": (4, 6, 8, 10, 12, 14), "tiny": (4, 6, 8, 10, 12)}

    def inputs(self, seed: int, size: str) -> list:
        # The lattice has no random part: the seed selects nothing here.
        return [[{"radii": self.SIZES[size]}]]

    def warmup_item(self) -> dict:
        return {"radii": (2, 3, 4)}

    def op(self, item):
        return cf.classify(lattice_exhaustion(3, item["radii"]))

    def check(self, item, report) -> list[str]:
        problems = []
        if report.verdict != "Subcritical":
            problems.append(f"verdict {report.verdict}, expected Subcritical")
        caps = [c for _, c in report.capacity_trace]
        if not all(b < a for a, b in zip(caps, caps[1:])):
            problems.append(f"capacity trace not strictly decreasing: {caps}")
        limit = report.fit.get("extrapolated_limit")
        if limit is None or abs(limit - 6.0 / WATSON_U3) > 5e-3:
            problems.append(f"extrapolated limit {limit} not within 5e-3 of 6/u3")
        R0, cap0 = report.capacity_trace[0]
        own = box_capacity(int(R0))
        if abs(cap0 - own) > 1e-10 * own:
            problems.append(f"capacity at R={R0}: program {cap0!r}, own {own!r}")
        return problems


# ---------------------------------------------------------------------------
# decay-profile
# ---------------------------------------------------------------------------

def shifted_spec(form, sigma: float) -> dict:
    """Graph description of ``form`` with sigma added to the potential."""
    v = form.vertices
    return {
        "vertices": list(v),
        "edges": [[v[i], v[j], float(b)] for (i, j), b in zip(form.edge_index, form.weights)],
        "mu": {x: float(m) for x, m in zip(v, form.measure)},
        "potential": {x: float(c) + sigma for x, c in zip(v, form.potential)},
        "dirichlet": sorted(form.dirichlet),
    }


class DecayProfile(Workload):
    """The criterion-6 loop: resolvent, shifted form, two alpha profiles,
    decay rate and its sampled verification, one random form per operation."""

    # (blocks, form sizes per block); each size appears once unsigned and once
    # signed.  At a fixed size the cost of a form varies about twofold with its
    # structure and with h (how many spike sites alpha_profile refines), so a
    # run cycles through several blocks of distinct forms for steady quantiles.
    SIZES = {"full": (5, np.linspace(5, 40, 12).round().astype(int)),
             "tiny": (1, np.array([6, 12]))}

    def inputs(self, seed: int, size: str) -> list:
        n_blocks, sizes = self.SIZES[size]
        rng = _rng(seed, 6)
        return [[{"n": int(n), "signed": signed, "form_seed": int(rng.integers(2**31)),
                  "g": rng.uniform(0.5, 2.0, int(n))}
                 for n in sizes for signed in (False, True)]
                for _ in range(n_blocks)]

    def warmup_item(self) -> dict:
        return {"n": 8, "signed": True, "form_seed": 1, "g": np.linspace(0.5, 2.0, 8)}

    def op(self, item):
        k = item["form_seed"]
        base = random_connected_form(item["n"], seed=k, signed_potential=item["signed"])
        h = cf.resolvent_apply(base, item["g"], 1.0)
        form = cf.build_form(shifted_spec(base, 1.0))
        prof = cf.alpha_profile(form, h=h, seed=k, budget=(6, 30))
        r_lo = min(float(prof.r_grid[0]),
                   float(np.exp(-2.0 * T_GRID[-1] / prof.alpha_base - 12.0)))
        grid = np.geomspace(r_lo, float(prof.r_grid[-1]), 101)
        prof = cf.alpha_profile(form, h=h, r_grid=grid, seed=k, budget=(6, 30))
        curve = cf.decay_rate(prof, T_GRID)
        ver = cf.verify_decay(form, h, curve, n_samples=20, seed=k)
        return form, h, prof, curve, ver

    def check(self, item, result) -> list[str]:
        form, h, prof, curve, ver = result
        tag = f"form n={item['n']} seed={item['form_seed']}"
        problems = []
        if not ver.passed:
            problems.append(f"{tag}: verify_decay did not pass")
        if np.any(prof.alpha_lb > prof.alpha_cert):
            problems.append(f"{tag}: alpha_lb exceeds alpha_cert")
        if np.any(np.diff(prof.alpha_cert) > 0):
            problems.append(f"{tag}: alpha_cert increases")
        Q, act = own_active_matrix(form)
        Q = Q.toarray()
        mu = form.measure[act]
        # top eigenvalue of the pencil (diag(mu), Q) via a Cholesky factor of Q
        Linv = np.linalg.inv(np.linalg.cholesky(Q))
        top = float(np.linalg.eigvalsh(Linv @ np.diag(mu) @ Linv.T)[-1])
        if abs(prof.alpha_base - top) > 1e-9 * top:
            problems.append(f"{tag}: alpha_base {prof.alpha_base!r}, own pencil top {top!r}")
        h_act = h[act]
        L = Q / mu[:, None]
        for t, xi in zip(curve.t_grid, curve.xi):
            th = scipy.linalg.expm(-float(t) * L) @ h_act
            lhs = float(np.sum(th * th * mu))
            rhs = float(xi) * (float(np.sum(h_act * h_act * mu)) + 1.0)
            if lhs > rhs * (1 + 1e-8):
                problems.append(f"{tag}: |T_t h|^2 = {lhs!r} > {rhs!r} at t={t}")
        return problems

    def run_problems(self) -> list[str]:
        """Flat profiles alpha = a must give xi(t) = exp(-2t/a) to 1e-9."""
        problems = []
        t = np.array(T_GRID)
        for a in (0.5, 1.0, 2.0):
            grid = np.geomspace(1e-40, 1.0, 16)
            flat = np.full(grid.size, a)
            prof = cf.AlphaProfile(r_grid=grid, alpha_cert=flat, alpha_lb=flat, mode="hardy",
                                   alpha_base=a, budget_exhausted=False)
            xi = cf.decay_rate(prof, t).xi
            exact = np.exp(-2.0 * t / a)
            if np.max(np.abs(xi - exact)) > 1e-9:
                problems.append(f"flat profile a={a}: xi {xi.tolist()} vs {exact.tolist()}")
        return problems


# ---------------------------------------------------------------------------
# hardy-trees
# ---------------------------------------------------------------------------

class HardyTrees(Workload):
    """Hardy weights with a point source on random trees and a half-line path."""

    # (blocks, small tree sizes, large tree sizes)
    SIZES = {"full": (1, np.linspace(5, 200, 120).round().astype(int),
                      (PENCIL_CUTOFF - 100, PENCIL_CUTOFF, PENCIL_CUTOFF + 1,
                       PENCIL_CUTOFF + 400)),
             "tiny": (1, np.array([5, 40]), (PENCIL_CUTOFF + 1,))}
    N_SAMPLES = 200

    def inputs(self, seed: int, size: str) -> list:
        n_blocks, small, large = self.SIZES[size]
        rng = _rng(seed, 3)
        blocks = []
        for _ in range(n_blocks):
            items = [{"path": 200, "source": "1", "sample_seed": int(rng.integers(2**31))}]
            for n in [*small, *large]:
                items.append({
                    "n": int(n),
                    "tree_seed": int(rng.integers(2**31)),
                    "source": int(rng.integers(0, int(n))),
                    "sample_seed": int(rng.integers(2**31)),
                })
            blocks.append(items)
        return blocks

    def warmup_item(self) -> dict:
        return {"n": 30, "tree_seed": 1, "source": 3, "sample_seed": 1}

    def op(self, item):
        if "path" in item:
            form = path_form(item["path"])
            x = form.index(item["source"])
        else:
            form = random_tree_form(item["n"], seed=item["tree_seed"])
            x = item["source"]
        g = np.zeros(form.n)
        g[x] = 1.0
        hw = cf.hardy_weight(form, g, n_samples=self.N_SAMPLES, seed=item["sample_seed"])
        return form, x, hw

    def check(self, item, result) -> list[str]:
        form, x, hw = result
        tag = f"{form.name} source {form.vertices[x]}"
        problems = []
        ver = hw.verification
        if not ver.passed:
            problems.append(f"{tag}: verification did not pass")
        # w(x) mu(x) (Q^-1)_xx = 1 for the point source g = delta_x
        Q, act = own_active_matrix(form)
        e = (act == x).astype(float)
        qxx = float(spla.spsolve(Q.tocsc(), e)[np.flatnonzero(e)[0]])
        prod = float(hw.values[x]) * float(form.measure[x]) * qxx
        if abs(prod - 1.0) > 1e-8:
            problems.append(f"{tag}: w mu (Q^-1)_xx = {prod!r}, expected 1")
        if "path" in item and (ver.pencil_lambda_max is None
                               or abs(ver.pencil_lambda_max - 1.0) > 1e-8):
            problems.append(f"{tag}: pencil top {ver.pencil_lambda_max!r}, expected 1")
        return problems


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def graph_document(n: int, rng: np.random.Generator) -> dict:
    """Random connected graph (tree plus extra edges) with a positive potential."""
    ids = [f"v{k:03d}" for k in range(n)]
    edges = {}
    for k in range(1, n):
        edges[(int(rng.integers(0, k)), k)] = float(rng.uniform(0.5, 2.0))
    for _ in range(n // 4):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.5, 2.0)))
    return {
        "vertices": ids,
        "edges": [[ids[u], ids[v], b] for (u, v), b in sorted(edges.items())],
        "mu": {x: float(rng.uniform(0.5, 2.0)) for x in ids},
        "potential": {x: float(rng.uniform(0.1, 0.5)) for x in ids},
    }


def generator_min(doc: dict, h: dict) -> tuple[float, float]:
    """min over vertices of L h, and the scale the excessivity gate uses:
    max_v (2 deg(v) + |c(v)| mu(v)) / mu(v) * max(sup h, 1)."""
    ids = doc["vertices"]
    pos = {x: k for k, x in enumerate(ids)}
    n = len(ids)
    mu = np.array([doc["mu"][x] for x in ids])
    c = np.array([doc["potential"][x] for x in ids])
    hv = np.array([h[x] for x in ids])
    flow = np.zeros(n)
    deg = np.zeros(n)
    for u, v, b in doc["edges"]:
        i, j = pos[u], pos[v]
        flow[i] += b * (hv[i] - hv[j])
        flow[j] += b * (hv[j] - hv[i])
        deg[i] += b
        deg[j] += b
    Lh = flow / mu + c * hv
    scale = float(np.max((2 * deg + np.abs(c) * mu) / mu)) * max(float(hv.max()), 1.0)
    return float(Lh.min()), scale


class CliMix(Workload):
    """In-process CLI jobs writing their reports under ``workdir``."""

    # (blocks, check jobs, excessive document sizes, tolerance probes).  Check
    # jobs (about 55-80 ms here) make up three quarters of a block and the
    # faster excessive jobs and probes the rest, so the median job lies well
    # inside the cluster of check-job latencies, not in the gap below it.
    SIZES = {"full": (3, 26, np.linspace(10, 100, 8).round().astype(int), 2),
             "tiny": (1, 2, np.array([8, 20]), 1)}
    # The probes demand a pencil top <= 1 + (-0.5); the top is exactly 1, so a
    # job that applies its --tol overrides must fail verification (exit 1).
    PROBE = ["hardy-weight", "--family", "dirichlet_path", "--param", "radii=[25,50]",
             "--seed", "11", "--tol", "tol_eig=-0.5", "--tol", "tol_ineq=-0.5"]

    def __init__(self, workdir: str):
        self.workdir = workdir

    def inputs(self, seed: int, size: str) -> list:
        n_blocks, n_check, doc_sizes, n_probe = self.SIZES[size]
        rng = _rng(seed, 8)
        os.makedirs(self.workdir, exist_ok=True)
        base = int(rng.integers(2**20))   # check seeds run on from here
        return [self._block(b, base + b * n_check, n_check, doc_sizes, n_probe, rng)
                for b in range(n_blocks)]

    def _block(self, b, first_seed, n_check, doc_sizes, n_probe, rng) -> list:
        items = []
        for k in range(n_check):
            items.append({"kind": "check", "argv": [
                "check", "--seed", str(first_seed + k), "--n-forms", "6", "--n-samples", "30"]})
        for k, n in enumerate(doc_sizes):
            doc = graph_document(int(n), rng)
            path = os.path.join(self.workdir, f"graph{b}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            items.append({"kind": "excessive", "doc": doc, "argv": ["excessive", "--input", path]})
        for _ in range(n_probe):
            items.append({"kind": "probe", "argv": list(self.PROBE)})
        items.append({"kind": "repeat", "argv": list(items[0]["argv"]), "twin": 0})
        for k, item in enumerate(items):
            item["output"] = os.path.join(self.workdir, f"job{b}-{k}")
        return items

    def warmup_item(self) -> dict:
        return {"kind": "check", "argv": ["check", "--seed", "1", "--n-forms", "2"],
                "output": os.path.join(self.workdir, "warmup")}

    def op(self, item):
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return cli.main(item["argv"] + ["--output", item["output"]])

    def report(self, item) -> dict:
        with open(item["output"] + ".json", encoding="utf-8") as fh:
            return json.load(fh)

    def failed(self, item, code) -> bool:
        if item["kind"] != "probe":
            return False
        passed = self.report(item)["results"]["verification"]["passed"]
        return not (code == 1 and passed is False)

    def check(self, item, code) -> list[str]:
        kind = item["kind"]
        tag = f"{kind} job {' '.join(item['argv'])}"
        if kind == "probe":
            return []
        if code != 0:
            return [f"{tag}: exit code {code}"]
        results = self.report(item)["results"]
        if kind in ("check", "repeat") and results["violations"] != 0:
            return [f"{tag}: {results['violations']} violations"]
        if kind == "excessive":
            if results["excessive"] is not True:
                return [f"{tag}: excessive is {results['excessive']!r}"]
            low, scale = generator_min(item["doc"], results["values"])
            if low < -1e-8 * scale:
                return [f"{tag}: min L h = {low!r} below -1e-8 * {scale!r}"]
        return []

    def round_problems(self, items) -> list[str]:
        """The repeated job must write the same bytes as its twin."""
        problems = []
        for item in items:
            if "twin" in item:
                twin = items[item["twin"]]
                with open(item["output"] + ".json", "rb") as a, \
                        open(twin["output"] + ".json", "rb") as b:
                    if a.read() != b.read():
                        problems.append(f"repeated job {item['argv']} changed its report bytes")
        return problems


def make(name: str, workdir: str) -> Workload:
    """The workload called ``name``; ``workdir`` holds its scratch files."""
    if name == "cli-mix":
        return CliMix(workdir)
    return {"classify-lattice3d": ClassifyLattice3D, "decay-profile": DecayProfile,
            "hardy-trees": HardyTrees}[name]()
