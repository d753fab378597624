"""The four benchmark workloads and their correctness oracles.

Each workload generates a pool of ``pool`` inputs from the seed in
``setup`` and runs its code paths once in ``warm_up``.  Operation
``op(i)`` runs input ``i % pool``, and ``check`` checks its output: it
returns the worst deviation divided by the oracle's tolerance (0.0 for
byte-exact golden checks) or raises ``CheckFailed``.  Checks run outside
the timed operation.  ``points_per_op`` counts the sweep grid points one
operation covers, for the traced per-point call ratios.

Workloads call the library through module attributes (``cli.main``,
``threemode.psi1_infinite``) at call time, so the traced run sees every
call through its wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re

import numpy as np

from oscpert import cli, linalg, threemode
from oscpert.benchmarks import registry

MODELS = ("small", "moderate", "large")
SWEEP_STEPS = 1001

# Tolerances of the verify suite's defaults, keyed by the PASS-line name.
VERIFY_TOLERANCES = {
    "coupling-table": 5e-4,
    "zero-eigenvalue": 1e-9,
    "analytic-vs-quadrature": 1e-7,
    "expansion-vs-propagator": 1e-5,
    "block-equivalence": 1e-5,
    "resummation-vs-propagator": 5e-4,
}
_PASS_LINE = re.compile(r"^PASS ([a-z-]+): .*?(?:within|=|deviation|residual|worst) ([0-9.]+e[-+][0-9]+)")

RESUM_TOL = 5e-4  # verify's resummation_vs_propagator tolerance
RESUM_T_MAX = 200.0  # |z| <= max(|X|,|Y|,|Z|) * t stays below ~18 on `small`
RESUM_POOL = 256

GRAPH_NODES = 200
GRAPH_PAIRS_L0 = 1990  # 10% of the 19,900 node pairs carry a balanced two-way link
GRAPH_PAIRS_LI = 1090  # one-way links on further pairs, ~5,070 edges in all
GRAPH_COUNT = 2
SUM_TOL = 1e-12  # graph.IDENTITY_TOL: L = L0 + LI and zero row sums
BALANCE_TOL = 1e-9  # graph.CERTIFICATE_TOL: m_i L0_ij = m_j L0_ji


class CheckFailed(Exception):
    """An operation's output failed its golden or oracle check."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"exit {rc} for {argv}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def _rotated(seed: int) -> tuple[str, ...]:
    k = seed % len(MODELS)
    return MODELS[k:] + MODELS[:k]


class Sweep:
    """`oscpert sweep --steps 1001` on [0, 1], cycling over the three models."""

    pool = len(MODELS)
    points_per_op = SWEEP_STEPS

    def __init__(self, golden: dict, workdir: str):
        self.golden = golden["sweep"]
        self.out = os.path.join(workdir, "sweep.csv")

    def setup(self, seed: int) -> None:
        self.models = _rotated(seed)

    def warm_up(self) -> None:
        run_cli(["sweep", "--model", self.models[0], "--steps", "101", "--out", self.out])

    def op(self, i: int) -> str:
        model = self.models[i % self.pool]
        run_cli(["sweep", "--model", model, "--steps", str(SWEEP_STEPS), "--out", self.out])
        return model

    def check(self, i: int, model: str) -> float:
        with open(self.out, "rb") as fh:
            digest = sha256(fh.read())
        if digest != self.golden[model]:
            raise CheckFailed(f"sweep CSV for {model} differs from the golden file")
        return 0.0


def verify_err_ratio(stdout: str) -> float:
    """Worst measured value over tolerance among the PASS lines."""
    worst = 0.0
    for line in stdout.splitlines():
        match = _PASS_LINE.match(line)
        if match:
            worst = max(worst, float(match.group(2)) / VERIFY_TOLERANCES[match.group(1)])
    return worst


class Verify:
    """`oscpert verify --depth full` for the three models back to back."""

    pool = 1
    points_per_op = 0

    def __init__(self, golden: dict, workdir: str):
        self.golden = golden["verify"]

    def setup(self, seed: int) -> None:
        self.models = _rotated(seed)

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> list[tuple[str, str]]:
        return [(m, run_cli(["verify", "--model", m, "--depth", "full"])[1]) for m in self.models]

    def check(self, i: int, outputs: list[tuple[str, str]]) -> float:
        for model, stdout in outputs:
            if sha256(stdout.encode()) != self.golden[model]:
                raise CheckFailed(f"verify stdout for {model} differs from the golden file")
        return max(verify_err_ratio(stdout) for _, stdout in outputs)


def resum_inputs(seed: int) -> list[tuple[float, np.ndarray]]:
    """Stratified t ~ U[0, RESUM_T_MAX] in shuffled order, each with a unit psi0."""
    rng = random.Random(seed)
    width = RESUM_T_MAX / RESUM_POOL
    times = [(k + rng.random()) * width for k in range(RESUM_POOL)]
    rng.shuffle(times)
    inputs = []
    for t in times:
        psi0 = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
        inputs.append((t, psi0 / np.linalg.norm(psi0)))
    return inputs


class Resum:
    """One `threemode.psi1_infinite` call on `small` against the propagator."""

    pool = RESUM_POOL
    points_per_op = 0

    def __init__(self, golden: dict, workdir: str):
        pass

    def setup(self, seed: int) -> None:
        self.model = registry("small")
        self.trunc = threemode.SeriesTruncation(k_max=4, tail_tol=1e-12)
        self.inputs = resum_inputs(seed)
        full = threemode.omega_matrix(self.model)
        # Independent cross-check of the propagator reference: Omega(1) of
        # `small` has three well-separated eigenvalues, so V diag(e) V^-1 is exact
        # to rounding.
        lam, vecs = np.linalg.eig(full)
        self.refs = []
        for t, psi0 in self.inputs:
            ref = linalg.matrix_exponential_apply(full, t, psi0)[0]
            eig_ref = (vecs @ (np.exp(-1j * lam * t) * np.linalg.solve(vecs, psi0)))[0]
            if abs(ref - eig_ref) > 1e-9:
                raise CheckFailed(f"propagator and eigen-decomposition disagree at t={t}")
            self.refs.append(ref)

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> complex:
        t, psi0 = self.inputs[i % self.pool]
        return threemode.psi1_infinite(self.model, t, psi0, self.trunc)

    def check(self, i: int, value: complex) -> float:
        err = abs(value - self.refs[i % self.pool])
        if not err <= RESUM_TOL:
            t = self.inputs[i % self.pool][0]
            raise CheckFailed(f"psi1 at t={t} off by {err:.3e} > {RESUM_TOL}")
        return err / RESUM_TOL


def random_digraph(rng: random.Random) -> tuple[dict, list[list[float]], list[float]]:
    """A digraph L = L0 + LI with a known balance certificate m for L0.

    L0 holds a random spanning tree plus further random pairs, each a
    two-way link with m_i w_ij = m_j w_ji; LI holds one-way links on pairs
    L0 does not use.  Returns the graph JSON dict, the dense LI and m.
    """
    n = GRAPH_NODES
    m = [rng.uniform(0.5, 2.0) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, n)}
    while len(pairs) < GRAPH_PAIRS_L0:
        i, j = rng.sample(range(n), 2)
        pairs.add((min(i, j), max(i, j)))
    edges = []
    for i, j in sorted(pairs):
        w = rng.uniform(0.5, 1.5)
        edges += [[i, j, w], [j, i, m[i] * w / m[j]]]
    li = [[0.0] * n for _ in range(n)]
    one_way = set()
    while len(one_way) < GRAPH_PAIRS_LI:
        i, j = rng.sample(range(n), 2)
        if (min(i, j), max(i, j)) not in pairs and (min(i, j), max(i, j)) not in one_way:
            one_way.add((min(i, j), max(i, j)))
            w = rng.uniform(0.5, 1.5)
            edges.append([i, j, w])
            li[i][j] = -w
    for i in range(n):
        li[i][i] = -sum(li[i])
    return {"n": n, "edges": edges}, li, m


def decompose_err_ratio(out: dict, graph: dict, li: list | None, m: list[float]) -> float:
    """Check a `decompose` output with plain numpy; returns worst deviation / tolerance."""
    n = graph["n"]
    lap = np.zeros((n, n))
    for src, dst, w in graph["edges"]:
        lap[src, dst] -= w
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    got_l, l0, l_one = (np.array(out[k]) for k in ("L", "L0", "LI"))
    cert = np.array(out["certificate"])
    scale = max(1.0, float(np.abs(lap).max()))
    ratios = [float(np.abs(got_l - lap).max()) / (SUM_TOL * scale)]
    ratios.append(float(np.abs(l0 + l_one - lap).max()) / (SUM_TOL * scale))
    for part in (l0, l_one):
        ratios.append(float(np.abs(part.sum(axis=1)).max()) / (SUM_TOL * scale))
    off = ~np.eye(n, dtype=bool)
    if (l0[off] > 0).any() or (l_one[off] > 0).any():
        raise CheckFailed("positive off-diagonal entry in L0 or LI")
    if ((l_one != 0) & (l_one.T != 0) & off).any():
        raise CheckFailed("LI carries both directions on a pair")
    if not (cert > 0).all():
        raise CheckFailed("certificate is not positive")
    bal = cert[:, None] * l0
    gap = np.abs(bal - bal.T)
    ratios.append(float((gap / (BALANCE_TOL * np.maximum(np.maximum(np.abs(bal), np.abs(bal.T)), 1.0))).max()))
    if li is not None:
        if not np.array_equal(l_one, np.array(li)):
            raise CheckFailed("explicit LI not recovered")
        # L0 is connected, so its certificate is m up to one scale factor.
        ratio = cert / np.array(m)
        ratios.append(float(np.abs(ratio / ratio[0] - 1.0).max()) / BALANCE_TOL)
    worst = max(ratios)
    if not worst <= 1.0:
        raise CheckFailed(f"decomposition deviates by {worst:.3g} x tolerance")
    return worst


class Decompose:
    """`oscpert decompose` on seeded n=200 digraphs, heuristic and explicit LI."""

    pool = 2 * GRAPH_COUNT
    points_per_op = 0

    def __init__(self, golden: dict, workdir: str):
        self.golden = golden["decompose"]
        self.workdir = workdir
        self.out = os.path.join(workdir, "decomposition.json")

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.cases = []  # (argv, input digest, graph, li or None, m)
        for k in range(GRAPH_COUNT):
            graph, li, m = random_digraph(rng)
            paths = [os.path.join(self.workdir, f"{name}{k}.json") for name in ("graph", "li")]
            texts = [json.dumps(graph), json.dumps(li)]
            for path, text in zip(paths, texts):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            base = ["decompose", "--graph", paths[0], "--out", self.out]
            self.cases.append((base, sha256(texts[0].encode()), graph, None, m))
            digest = sha256((texts[0] + "\0" + texts[1]).encode())
            self.cases.append((base + ["--li", paths[1]], digest, graph, li, m))
        self.verified: dict[str, float] = {}  # output digest -> err ratio

    def warm_up(self) -> None:
        self.op(0)
        self.op(1)

    def op(self, i: int) -> int:
        run_cli(self.cases[i % self.pool][0])
        return i % self.pool

    def output_digest(self, case: int) -> tuple[str, str]:
        with open(self.out, "rb") as fh:
            data = fh.read()
        return self.cases[case][1], sha256(data)

    def check(self, i: int, case: int) -> float:
        key, digest = self.output_digest(case)
        expected = self.golden.get(key)
        if expected is not None and digest != expected:
            raise CheckFailed(f"decompose output for case {case} differs from the golden file")
        if digest not in self.verified:
            with open(self.out, encoding="utf-8") as fh:
                out = json.load(fh)
            _, _, graph, li, m = self.cases[case]
            self.verified[digest] = decompose_err_ratio(out, graph, li, m)
        return self.verified[digest]


WORKLOADS = {"sweep": Sweep, "verify": Verify, "resum": Resum, "decompose": Decompose}
