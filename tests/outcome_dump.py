"""Outcome dump: the exact outcome of oscpert's public callables on a fixed
corpus, and the difference between two such dumps.

    python tests/outcome_dump.py dump [--src PATH] [--out FILE]
    python tests/outcome_dump.py diff OLD NEW [--show N]

`dump` writes one line per corpus row, tab-separated: the callable, an
argument id, and the outcome, either `value` and the value's exact bits as
JSON (every float as float.hex, each part of a complex apart, so signed
zeros, NaN and inf are kept; an array with its dtype and shape), or
`refused` and the exception's type and message.  The warnings a row raises,
if any, follow in a fifth field.  `--src PATH` imports oscpert from PATH,
the src directory of another checkout (say a clone of the parent commit),
instead of the one installed or on PYTHONPATH.

`diff` reports per callable how many rows are equal, how many differ only in
the type of their refusal, how many changed (a value or a message moved, a
value became a refusal, or a warning came or went), how many are in one
dump only, and the largest relative change between two values.  It lists
the first --show changed rows of each callable and exits 1 when any row
differs.

The corpus: s, m and l at eps in {0, -0.0, 0.3, 0.7, 1}; seeded random
models; models whose coupling products overflow or underflow, a degenerate
and an uncoupled one; transition brackets on tied models and below eps = 0;
t in {0, -0.0, 0.7, 3, 40, 1e308}; k_max, order_cap
and shell_tol variants; the number intakes on good and bad values; graphs
and their Laplacians; s, m and l and an unbalanced 3-cycle at scales far
from 1, a split whose L0 is far smaller than L and a chain whose balance
products overflow; and the CLI's exit code, stdout and first stderr line on
good and malformed input.  It runs in well under a minute.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import numbers
import os
import random
import sys
import tempfile
import warnings
from collections.abc import Mapping
from functools import partial
from pathlib import Path

import numpy as np

EPS_VALUES = (0.0, -0.0, 0.3, 0.7, 1.0)
T_VALUES = (0.0, -0.0, 0.7, 3.0, 40.0, 1e308)
PSI0 = (0.6 + 0.2j, -0.3 + 0.4j, 0.5 - 0.1j)
FIG1_GRAPH = {"n": 3, "edges": [[0, 1, 2], [0, 2, 1], [1, 0, 3], [1, 2, 3], [2, 0, 4], [2, 1, 2]]}
FIG1_LI = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
# (omega, a, d), each at eps in EXTREME_EPS: products of the a past the float
# range, or under it, frequencies that meet, and no coupling at all
EXTREMES = {
    "big-a": ((1, 2, 3.5), (1e200,) * 3, (0, 0, 0)),
    "big-a-signed": ((1, 2, 3.5), (-1e200, 1e200, 1e200), (0, 0, 0)),
    "huge-a": ((1, 2, 3.5), (1e60,) * 3, (0, 0, 0)),
    "ratio-powers": ((3, 2, 1), (1e100,) * 3, (0, 0, 0)),
    "tiny-a": ((1, 0, 1.5), (1e-200, 1e-200, 1e308), (0, 0, 0)),
    "lead2": ((1, 2, 3.5), (1e-300, 1e200, 1e200), (0, 0, 0)),
    "close": ((1, 1.056, 3), (1, 2, 1), (0.5, -0.25, 0)),
    "degenerate": ((5, 5, 1), (1, 1, 1), (0, 0, 0)),
    "tied3": ((1, 1, 1), (1, 1, 1), (0, 1, 2)),  # a pair opens at eps = 0
    "uncoupled": ((9, 6, 0), (0, 0, 0), (1.5, 1.6, 0.025)),
}
EXTREME_EPS = (0.0, -0.0, 0.5, 1.0)
# (omega, a, d) with two or three equal omega, so eps = 0 is an EP: a pair
# opens there in degenerate and tied3, and splits real in degenerate-split
TIED = {name: EXTREMES[name] for name in ("degenerate", "tied3")} | {
    "degenerate-split": ((5, 5, 1), (-2, -2, -2), (0, 0, 1))}
# every w, a and d (every edge weight) times c: no EP and no verdict moves
MODEL_SCALES = (1e-300, 1e-60, 1e-20, 1e-12, 1e150, 1e300)
PROBE_SCALES = (1.0, 1e-6, 1e-12, 1e-150)
# a 3-cycle whose two directions are 10% out of balance
PROBE_EDGES = [[0, 1, 1.0], [0, 2, 1.0], [1, 0, 1.0], [1, 2, 1.0], [2, 0, 1.1], [2, 1, 1.0]]
# with FIG1_LI as LI, a valid split whose L0 is 1e-9 of L and carries its rounding
SPLIT_EDGES = [[0, 1, 1.000000001], [1, 0, 1e-9], [1, 2, 1.0], [2, 0, 1.0]]
# a 30-link chain whose balance vector grows 1e10 per link, closed by a 3-cycle
# at weight 1e10 that is 10% out of balance: its balance products overflow
CHAIN_EDGES = [e for i in range(30) for e in ([i, i + 1, 1e10], [i + 1, i, 1.0])] + [
    [30, 31, 1e10], [31, 30, 1e10], [31, 32, 1e10], [32, 31, 1e10], [30, 32, 1e10], [32, 30, 1.1e10]]


def encode(value):
    """value as JSON data with its exact bits: a float as float.hex, a complex
    as {"re", "im"}, a str quoted (so never read as a float), an array as its
    dtype, shape and entries, a dataclass by its type and fields, an
    exception as "Type: message"."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, numbers.Complex):
        value = complex(value)
        return {"re": value.real.hex(), "im": value.imag.hex()}
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, np.ndarray):
        return {"dtype": encode(str(value.dtype)), "shape": list(value.shape), "data": encode(value.ravel().tolist())}
    if isinstance(value, (list, tuple)):
        return [encode(x) for x in value]
    if isinstance(value, Mapping):
        return {str(key): encode(x) for key, x in value.items()}
    if isinstance(value, BaseException):
        return encode(f"{type(value).__name__}: {value}")
    if dataclasses.is_dataclass(value):
        fields = {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {type(value).__name__: fields}
    raise TypeError(f"cannot encode a {type(value).__name__}")


def outcome(thunk) -> list[str]:
    """One call's outcome: its kind ("value" or "refused"), then the payload
    and any warnings as JSON texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fields = ["value", json.dumps(encode(thunk()), separators=(",", ":"))]
        except Exception as exc:  # noqa: BLE001 - every refusal is an outcome
            fields = ["refused", json.dumps(f"{type(exc).__name__}: {exc}")]
    warned = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    return fields + [json.dumps(warned)] if warned else fields


def _models(ns):
    """(id, model) of every model of the corpus."""
    tm, registry = ns["threemode"], ns["benchmarks"].registry
    out = [(f"{mid}@{eps!r}", registry(mid, epsilon=eps)) for mid in "sml" for eps in EPS_VALUES]
    rng = random.Random(20211)
    for k in range(16):
        omega, a, d = ([rng.uniform(-lim, lim) for _ in range(3)] for lim in (10.0, 6.0, 4.0))
        out.append((f"seed{k}", tm.ThreeModeModel(omega=omega, a=a, d=d, epsilon=rng.random())))
    for name, (omega, a, d) in EXTREMES.items():
        out += [(f"{name}@{eps!r}", tm.ThreeModeModel(omega=omega, a=a, d=d, epsilon=eps)) for eps in EXTREME_EPS]
    return out


def _model_rows(ns, mid, m):
    """The rows of one model: threemode, eigenfreq and dyson on it."""
    tm, ef, dyson = ns["threemode"], ns["eigenfreq"], ns["dyson"]
    trunc4, trunc1 = tm.SeriesTruncation(k_max=4), tm.SeriesTruncation(k_max=1, tail_tol=1e-8)
    yield "threemode.xyz", mid, partial(tm.xyz, m)
    yield "threemode.effective_frequencies", mid, partial(tm.effective_frequencies, m)
    yield "threemode.omega_matrix", mid, partial(tm.omega_matrix, m)
    yield "threemode.omega_matrix", f"{mid} grid", partial(tm.omega_matrix, m, [0.0, 0.5, 1.0])
    yield "threemode.perturbed_system", mid, partial(tm.perturbed_system, m)
    for target in tm.TARGETS:
        yield "threemode.cyclic_view", f"{mid} {target}", partial(tm.cyclic_view, m, target)
    system = partial(tm.perturbed_system, m)
    for t in T_VALUES:
        for n in range(4):
            yield "threemode.psi1_analytic", f"{mid} n={n} t={t!r}", partial(tm.psi1_analytic, m, n, t, PSI0)
        for trunc, kwargs in ((trunc1, {}), (trunc4, {}), (trunc4, {"order_cap": 9}), (trunc4, {"shell_tol": 1e-6})):
            tag = f"t={t!r} k_max={trunc.k_max} {kwargs}"
            for block in tm.BLOCK_NAMES:
                yield "threemode.series_block", f"{mid} {block} {tag}", partial(
                    tm.series_block, m, block, t, trunc, **kwargs)
            yield "threemode.psi1_infinite", f"{mid} {tag}", partial(tm.psi1_infinite, m, t, PSI0, trunc, **kwargs)
        for name, order in (("terms", 3), ("term", 2), ("partial_sum", 3), ("partial_sum", 6)):
            yield f"dyson.{name}", f"{mid} order={order} t={t!r}", (
                lambda name=name, order=order, t=t: getattr(dyson, name)(system(), order, t, PSI0, 60))
        yield "dyson.convergence_report", f"{mid} t={t!r}", lambda t=t: dyson.convergence_report(
            system(), t, PSI0, orders=(0, 2, 4), eps_grid=(0.0, 0.3, 1.0), steps=60)
    for which in (1, 2, 3):
        yield "eigenfreq.estimate_increments", f"{mid} {which}", partial(ef.estimate_increments, m, which)
        for level in ef.LEVELS:
            yield "eigenfreq.estimate", f"{mid} {which} {level}", partial(ef.estimate, m, which, level)
    grid = np.linspace(0.0, 1.0, 21)
    yield "eigenfreq.exceptional_points", mid, partial(ef.exceptional_points, m)
    yield "eigenfreq.true_eigenfrequencies", mid, partial(ef.true_eigenfrequencies, m)
    yield "eigenfreq.report", mid, partial(ef.report, m, m.epsilon)
    yield "eigenfreq.matched_path", mid, partial(ef.matched_path, m, grid)
    yield "eigenfreq.spectral_grid", mid, partial(ef.spectral_grid, m, grid)


def _number_rows(ns):
    """The intakes, linalg's operations and the model constructors."""
    linalg, tm, dyson = ns["linalg"], ns["threemode"], ns["dyson"]
    values = {"1": 1, "2.5": 2.5, "-0.0": -0.0, "1e400 int": 10**400, "f32": np.float32(0.1), "i64": np.int64(3),
              "True": True, "str": "1", "None": None, "1j": 1j, "nan": math.nan, "inf": math.inf}
    for vid, v in values.items():
        yield "linalg.as_real", vid, partial(linalg.as_real, v, "x")
        yield "linalg.as_real", f"{vid} in [0, 1]", partial(linalg.as_real, v, "x", 0, 1)
        yield "linalg.as_integer", f"{vid} >= 0", partial(linalg.as_integer, v, "x", 0)
        yield "linalg.as_array", vid, partial(linalg.as_array, [v, v], "x", float)
        yield "linalg.as_vector", vid, partial(linalg.as_vector, [v, v, v], 3)
        yield "linalg.as_square_matrix", vid, partial(linalg.as_square_matrix, [[v, 1], [1, v]])
        yield "threemode.ThreeModeModel", f"a1={vid}", partial(tm.ThreeModeModel, (9, 6, 0), (v, 2, 1), (1, 1, 1), 0.5)
        yield "threemode.SeriesTruncation", f"k_max={vid}", partial(tm.SeriesTruncation, k_max=v)
        yield "dyson.PerturbedSystem", f"epsilon={vid}", partial(dyson.PerturbedSystem, (1.0, 2.0), np.eye(2), v)
    s = ns["benchmarks"].registry("s")
    matrices = {
        "fig1": [[3.0, -2.0, -1.0], [-3.0, 6.0, -3.0], [-4.0, -2.0, 6.0]],
        "big": [[1e308, 1.0], [0.0, 0.0]],
        "jordan": [[2.0, 1.0], [0.0, 2.0]],
        "diag": np.diag([1.0, -2.0, 0.5]),
        "rand4": np.random.default_rng(4).normal(size=(4, 4)),
        "s-omega": tm.omega_matrix(s),
    }
    for name, mat in matrices.items():
        yield "linalg.eigenvalues", name, partial(linalg.eigenvalues, mat)
        for t in T_VALUES:
            yield "linalg.propagator", f"{name} t={t!r}", partial(linalg.propagator, mat, t)
            yield "linalg.matrix_exponential_apply", f"{name} t={t!r}", partial(
                linalg.matrix_exponential_apply, mat, t, np.ones(len(mat)))
    yield "linalg.eigenvalues", "s-omega stack", partial(linalg.eigenvalues, tm.omega_matrix(s, np.linspace(0, 1, 101)))
    yield "linalg.eigenvalues", "empty stack", partial(linalg.eigenvalues, np.zeros((0, 3, 3)))


def _graph_rows(ns):
    """Graphs, their Laplacians and decompositions, the benchmark registry and
    transition_epsilon on s, m, l and the TIED models, and below eps = 0."""
    graph, bm, ef = ns["graph"], ns["benchmarks"], ns["eigenfreq"]
    rng = np.random.default_rng(7)
    graphs = {"fig1": FIG1_GRAPH, "bool": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, True], [2, 0, 1.0]]}}
    for n in (8, 30):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
        graphs[f"rand{n}"] = {"n": n, "edges": [[i, j, float(rng.uniform(0.5, 2.0))] for i, j in pairs]}
        sym = [[i, j, 1.0] for i in range(n) for j in range(n) if abs(i - j) == 1]
        graphs[f"chain{n}"] = {"n": n, "edges": sym}
    for name, data in graphs.items():
        g = partial(graph.WeightedDigraph, data["n"], data["edges"])
        yield "graph.WeightedDigraph", name, g
        yield "graph.check_json_rows", name, partial(graph.check_json_rows, json.dumps(data), data["edges"], "edges")
        yield "graph.laplacian", name, lambda g=g: graph.laplacian(g())
        yield "graph.symmetrizability_certificate", name, lambda g=g: graph.symmetrizability_certificate(graph.laplacian(g()))
        yield "graph.decompose", name, lambda g=g: graph.decompose(graph.laplacian(g()))
        yield "graph.validate_decomposition", name, lambda g=g: graph.validate_decomposition(
            graph.decompose(graph.laplacian(g())))
    fig1 = graph.laplacian(graph.WeightedDigraph(**FIG1_GRAPH))
    yield "graph.decompose", "fig1 li", partial(graph.decompose, fig1, li=FIG1_LI)
    yield "graph.decompose", "fig1 li 2x2", partial(graph.decompose, fig1, li=[[0, 0], [0, 0]])
    for cert in ([3.0, 1.0, 1.0], [1.0, 0.0], [1.0, -2.0]):
        yield "graph.scaling_from_certificate", repr(cert), partial(graph.scaling_from_certificate, cert)
    for mid in ("s", "small", "m", "moderate", "l", "large", "nosuch"):
        yield "benchmarks.canonical_id", mid, partial(bm.canonical_id, mid)
        yield "benchmarks.registry", mid, partial(bm.registry, mid)
    for mid in ("s", "m", "l"):
        yield "eigenfreq.transition_epsilon", mid, partial(ef.transition_epsilon, bm.registry(mid), 0.0, 1.0)
    for name, (omega, a, d) in TIED.items():
        model = ns["threemode"].ThreeModeModel(omega, a, d, 0.0)
        yield "eigenfreq.transition_epsilon", name, partial(ef.transition_epsilon, model, 0.0, 1.0)
    yield "eigenfreq.transition_epsilon", "l [-1, 1]", partial(ef.transition_epsilon, bm.registry("l"), -1.0, 1.0)


def _scale_rows(ns):
    """s, m and l scaled by MODEL_SCALES; the unbalanced 3-cycle at
    PROBE_SCALES: decompose with a zero LI, and validate_decomposition of
    the split L0 = L with the certificate of its spanning tree; and the
    SPLIT_EDGES and CHAIN_EDGES probes."""
    tm, ef, graph, registry = ns["threemode"], ns["eigenfreq"], ns["graph"], ns["benchmarks"].registry
    grid = np.linspace(0.0, 1.0, 21)
    for mid in "sml":
        m = registry(mid)
        for c in MODEL_SCALES:
            scaled = tm.ThreeModeModel(*([c * x for x in getattr(m, k)] for k in ("omega", "a", "d")), m.epsilon)
            yield "eigenfreq.exceptional_points", f"{mid} x{c!r}", partial(ef.exceptional_points, scaled)
            yield "eigenfreq.matched_path", f"{mid} x{c!r}", partial(ef.matched_path, scaled, grid)
            yield "eigenfreq.spectral_grid", f"{mid} x{c!r}", partial(ef.spectral_grid, scaled, grid)
            yield "eigenfreq.report", f"{mid} x{c!r}", partial(ef.report, scaled, scaled.epsilon)
    split = graph.laplacian(graph.WeightedDigraph(3, SPLIT_EDGES))
    yield "graph.decompose", "split li", partial(graph.decompose, split, li=FIG1_LI)
    yield "graph.symmetrizability_certificate", "split L0", partial(graph.symmetrizability_certificate, split - FIG1_LI)
    chain = graph.laplacian(graph.WeightedDigraph(33, CHAIN_EDGES))
    yield "graph.symmetrizability_certificate", "chain", partial(graph.symmetrizability_certificate, chain)
    yield "graph.decompose", "chain li 0", partial(graph.decompose, chain, li=np.zeros((33, 33)))
    for c in PROBE_SCALES:
        lap = graph.laplacian(graph.WeightedDigraph(3, [[i, j, c * w] for i, j, w in PROBE_EDGES]))
        cert = np.array([1.0, lap[0, 1] / lap[1, 0], lap[0, 2] / lap[2, 0]])
        cert /= cert.min()
        scaling = graph.scaling_from_certificate(cert)
        split = graph.LaplacianDecomposition(lap, lap.copy(), np.zeros((3, 3)), scaling, cert)
        yield "graph.decompose", f"probe x{c!r} li 0", partial(graph.decompose, lap, li=np.zeros((3, 3)))
        yield "graph.validate_decomposition", f"probe x{c!r} tree split", partial(graph.validate_decomposition, split)


# argv of cli.main, in a scratch directory holding g.json, li.json and the
# model files: good runs, then the malformed inputs of the CLI tests
CLI_FILES = {
    "g.json": json.dumps(FIG1_GRAPH),
    "li.json": "[[1, -1, 0]]",
    "fig1-li.json": json.dumps(FIG1_LI),
    "tiny.json": json.dumps({"omega": [1, 0, 1.5], "a": [1e-200, 1e-200, 1e308], "d": [0, 0, 0], "epsilon": 1}),
    "huge.json": json.dumps({"omega": [1, 2, 3.5], "a": [1e60] * 3, "d": [0, 0, 0]}),
    "big0.json": json.dumps({"omega": [1, 2, 3.5], "a": [1e200] * 3, "d": [0, 0, 0]}),
    "probe.json": json.dumps({"n": 3, "edges": [[i, j, 1e-12 * w] for i, j, w in PROBE_EDGES]}),
    "li0.json": json.dumps([[0.0] * 3] * 3),
    "split.json": json.dumps({"n": 3, "edges": SPLIT_EDGES}),
    "chain.json": json.dumps({"n": 33, "edges": CHAIN_EDGES}),
    "chain-li0.json": json.dumps([[0.0] * 33] * 33),
}
CLI_RUNS = [
    "xyz --model m",
    "xyz --model @big0.json --epsilon 0",
    "term --model s --order 2 --t 0.7",
    "term --model @tiny.json --order 1 --t 7.3",
    "verify --model s",
    "verify --model l --depth full",
    "sweep --model s --steps 11 --out out.csv",
    "sweep --model @huge.json --steps 11 --out out.csv",
    "sweep --model l --steps 5 --format json --out out.json",
    "decompose --graph g.json --out out.json",
    "decompose --graph g.json --li fig1-li.json --out out.json",
    "decompose --graph probe.json --li li0.json --out out.json",
    "decompose --graph split.json --li fig1-li.json --out out.json",
    "decompose --graph chain.json --li chain-li0.json --out out.json",
    "verify --model nosuch",
    "decompose --graph g.json --li li.json --out out.json",
    "term --model s --order 1 --t 0.5 --psi0 1,2",
    "term --model s --order 3 --t 0.5 --steps 20",
    "sweep --model s",
]


def _run_cli(main, argv: str):
    """(exit code, stdout, first stderr line, the files the run wrote)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CLI_FILES.items():
            Path(tmp, name).write_text(text)
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv.split())
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
        finally:
            os.chdir(cwd)
        written = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir()) if p.name not in CLI_FILES}
    return code, out.getvalue(), (err.getvalue().splitlines() or [""])[0], written


def corpus(ns):
    """(callable, argument id, thunk) of every row, in a fixed order; ns maps
    each oscpert module name to the module."""
    yield from _number_rows(ns)
    yield from _graph_rows(ns)
    yield from _scale_rows(ns)
    for mid, m in _models(ns):
        yield from _model_rows(ns, mid, m)
    for argv in CLI_RUNS:
        yield "cli.main", argv, partial(_run_cli, ns["cli"].main, argv)


def load(src: str | None = None) -> dict:
    """oscpert's modules by name, imported from src when given."""
    if src is not None:
        sys.path.insert(0, str(Path(src).resolve()))
    import oscpert
    from oscpert import cli

    if src is not None and not Path(oscpert.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"oscpert was already imported from {oscpert.__file__}, not from {src}")
    modules = ("linalg", "graph", "dyson", "threemode", "eigenfreq", "benchmarks")
    return {name: getattr(oscpert, name) for name in modules} | {"cli": cli}


def dump(rows, out) -> None:
    for func, arg_id, thunk in rows:
        out.write("\t".join([func, arg_id, *outcome(thunk)]) + "\n")


def _read(path: str) -> dict:
    rows = {}
    for line in Path(path).read_text().splitlines():
        func, arg_id, *fields = line.split("\t")
        rows[func, arg_id] = fields
    return rows


def _floats(data):
    """The floats of encoded data, in order (a quoted str is none)."""
    if isinstance(data, str):
        return [] if data.startswith("'") else [float.fromhex(data) if "0x" in data else float(data)]
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        return [x for item in data for x in _floats(item)]
    return []


def relative_change(old: str, new: str) -> float:
    """The largest |a - b| / max(|a|, |b|) over two values' floats; inf where
    their shapes differ or one float is NaN and the other is not."""
    a, b = _floats(json.loads(old)), _floats(json.loads(new))
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, math.inf if math.isnan(x) or math.isnan(y) or math.isinf(scale) else abs(x - y) / scale)
    return worst


def diff(old_path: str, new_path: str, show: int, out) -> int:
    old, new = _read(old_path), _read(new_path)
    funcs = sorted({func for func, _ in old.keys() | new.keys()})
    differs = False
    out.write(f"{'callable':<34}{'equal':>7}{'type':>6}{'changed':>9}{'old only':>10}{'new only':>10}  max rel change\n")
    for func in funcs:
        keys_old = {k for k in old if k[0] == func}
        keys_new = {k for k in new if k[0] == func}
        equal, type_only, changed, worst = 0, 0, [], 0.0
        for key in sorted(keys_old & keys_new, key=lambda k: k[1]):
            a, b = old[key], new[key]
            if a == b:
                equal += 1
            elif a[0] == b[0] == "refused" and a[2:] == b[2:] and _message(a[1]) == _message(b[1]):
                type_only += 1
            else:
                change = relative_change(a[1], b[1]) if a[0] == b[0] == "value" else math.inf
                worst = max(worst, change)
                changed.append((key[1], change, a, b))
        only_old, only_new = len(keys_old - keys_new), len(keys_new - keys_old)
        differs |= bool(type_only or changed or only_old or only_new)
        rel = f"{worst:.3g}" if changed else "-"
        out.write(f"{func:<34}{equal:>7}{type_only:>6}{len(changed):>9}{only_old:>10}{only_new:>10}  {rel}\n")
        for arg_id, change, a, b in changed[:show]:
            out.write(f"    {arg_id}: {change:.3g}\n      old {' '.join(a)[:200]}\n      new {' '.join(b)[:200]}\n")
    return int(differs)


def _message(refusal: str) -> str:
    """A refusal's message without its type."""
    return json.loads(refusal).partition(": ")[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_dump = sub.add_parser("dump", help="write the outcome of every corpus row")
    p_dump.add_argument("--src", help="import oscpert from this src directory")
    p_dump.add_argument("--out", help="write here instead of to stdout")
    p_diff = sub.add_parser("diff", help="compare two dumps, callable by callable")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument("--show", type=int, default=5, help="changed rows to list per callable")
    args = parser.parse_args(argv)
    if args.mode == "diff":
        return diff(args.old, args.new, args.show, sys.stdout)
    rows = corpus(load(args.src))
    if args.out is None:
        dump(rows, sys.stdout)
    else:
        with open(args.out, "w") as out:
            dump(rows, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
