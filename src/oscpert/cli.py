"""Reproduction harness CLI.

Verbs:
    sweep      — eigenfrequency estimates vs truth over an epsilon grid
    verify     — cross-oracle consistency suite for a benchmark model
    decompose  — Laplacian decomposition of a graph JSON file
    xyz        — coupling ratios X, Y, Z of a model
    term       — one expansion-order coefficient (quadrature + closed form)

Exit codes: 0 success, 1 a refused result (an OscPertError: a verification
or validation failure), 2 bad input (any ValueError, a wrong shape or model
id included), an I/O error or a failed allocation.  Output is
byte-deterministic for a fixed invocation: the sweep CSV prints floats with
17 significant digits in a fixed row order, and the decompose JSON is
exactly json.dumps(..., sort_keys=True, indent=2) of the nested lists
(floats in their shortest round-trip form), built in full before any of it
is written, so a refused decomposition writes nothing.  `sweep` computes its
whole grid (sweep_rows returns the columns as arrays) before it opens
--out, so a refused sweep writes nothing either (a ±inf float, which JSON
cannot hold, refuses --format json there too).  One block writer then
formats and writes either format one block of _CSV_BLOCK_ROWS rows at a
time, with one % per block; the JSON has the bytes of
json.dumps(..., sort_keys=True, indent=2) of the whole table.

`verify` runs rows of VERIFY_CHECKS and prints one PASS/FAIL line per row:
the quick rows always, the full rows at --depth full, and the series rows at
--depth full when every |X|,|Y|,|Z| < 1 (the paper's small-coupling
condition, not a convergence test); otherwise one SKIP line follows the last
row that ran.  OSC_PERT_TOL, if set, must be a finite positive float (else a
usage error before any output) and overrides every row's tolerance.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dyson, eigenfreq, graph, linalg, threemode
from .benchmarks import COUPLING_TABLE, canonical_id, registry
from .errors import OscPertError
from .threemode import SeriesTruncation, ThreeModeModel

CSV_HEADER = (
    "epsilon,mode,true_re,true_im,app0,app1,app2,err0,err1,err2,"
    "real_spectrum,status"
)


def _load_model(spec: str, epsilon: float | None = None) -> ThreeModeModel:
    """Benchmark alias (m/s/l or full id) or @path to a model JSON file, at
    epsilon when given, else at the file's epsilon, else at 1.0."""
    eps = 1.0 if epsilon is None else epsilon
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            data = json.load(fh)
        model = ThreeModeModel.from_json_dict(data)
        return model if epsilon is None and "epsilon" in data else model.at_epsilon(eps)
    return registry(spec, epsilon=eps)


def _parse_psi0(text: str) -> np.ndarray:
    try:
        parts = [complex(p.strip().replace("i", "j")) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse psi0 {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise ValueError(f"psi0 needs 3 components, got {len(parts)} in {text!r}")
    return np.array(parts, dtype=complex)


def sweep_rows(model: ThreeModeModel, eps_values, levels) -> dict[str, np.ndarray]:
    """The sweep table as columns named as in CSV_HEADER, in its order.

    Entry r of every column (a 1-D array) belongs to row r, one row per
    (epsilon, mode).  Formats eigenfreq.spectral_grid, which holds the
    matched truth, the estimates, and each mode's reality and errors; levels
    not in `levels` are NaN.  A grid point whose estimates are refused keeps
    its true values, carries NaN estimates and names the refusal in `status`
    (an object array of str).
    """
    grid = eigenfreq.spectral_grid(model, eps_values)
    true = grid.true_values.reshape(-1)
    wanted = [name in levels for name in eigenfreq.LEVELS]
    ests = np.where(wanted, grid.estimates.reshape(-1, 3), np.nan)
    errs = np.where(wanted, grid.errors.reshape(-1, 3), np.nan)
    status = ["ok" if r is None else type(r).__name__ for r in grid.refusals]
    return {
        "epsilon": np.repeat(grid.epsilon, 3),
        "mode": np.tile([1, 2, 3], len(grid.epsilon)),
        "true_re": true.real,
        "true_im": true.imag,
        **dict(zip(eigenfreq.LEVELS, ests.T)),
        **dict(zip(("err0", "err1", "err2"), errs.T)),
        "real_spectrum": grid.mode_real.reshape(-1),
        "status": np.repeat(np.array(status, dtype=object), 3),
    }


# One CSV row; "%.17g" prints what f"{x:.17g}" prints, nan and -0 included.
_CSV_ROW = "%.17g,%d" + ",%.17g" * 8 + ",%s,%s"
# One JSON row as json.dumps(..., sort_keys=True, indent=2) prints it inside
# "rows"; each value is a preformatted str, an int or a float ("%s" of a
# float is its repr, as json's).
_JSON_ROW = "    {\n" + ",\n".join(f'      "{k}": %s' for k in sorted(CSV_HEADER.split(","))) + "\n    }"
# Rows formatted and written per write call, in either format: 341 grid
# points of three modes.
_CSV_BLOCK_ROWS = 1023


def _sweep_layout(fmt: str, model: ThreeModeModel, columns: dict) -> tuple:
    """The sweep file in format fmt as (head, row, sep, last, tail, cells, null).

    The file is head, then each row's `row % fields` followed by sep (by last
    after the final row), then tail.  cells holds one 1-D array per field of
    row, in its order.  null, when set, is the text of a NaN float cell.
    Each grid point's epsilon is formatted once for its three rows.
    """
    words = np.array(["false", "true"], dtype=object)[columns["real_spectrum"].astype(np.intp)]
    points = columns["epsilon"][::3].tolist()
    if fmt == "csv":
        epsilon = np.repeat(np.array(["%.17g" % e for e in points], dtype=object), 3)
        cells = dict(columns, epsilon=epsilon, real_spectrum=words)
        return CSV_HEADER + "\n", _CSV_ROW.replace("%.17g", "%s", 1), "\n", "\n", "", list(cells.values()), None
    for key, column in columns.items():
        if column.dtype == np.float64 and np.isinf(column).any():
            raise ValueError(f"Out of range float values are not JSON compliant in {key}")
    names, which = np.unique(columns["status"], return_inverse=True)
    status = np.array([json.dumps(name) for name in names.tolist()], dtype=object)[which]
    epsilon = np.repeat(np.array(list(map(float.__repr__, points)), dtype=object), 3)
    cells = dict(columns, epsilon=epsilon, real_spectrum=words, status=status)
    empty = json.dumps({"model": model.to_json_dict(), "rows": []}, sort_keys=True, indent=2, allow_nan=False)
    head = empty.removesuffix("]\n}") + "\n"
    return head, _JSON_ROW, ",\n", "", "\n  ]\n}\n", [cells[k] for k in sorted(cells)], "null"


def _block_cells(part: np.ndarray, null) -> list:
    """part.tolist(), with null in place of each NaN of a float part when null is set."""
    if null is None or part.dtype != np.float64:
        return part.tolist()
    cells = part.astype(object)
    cells[np.isnan(part)] = null
    return cells.tolist()


def _cmd_sweep(args) -> int:
    model = _load_model(args.model)
    if not (0.0 <= args.eps_start < args.eps_end <= 1.0):
        raise ValueError("need 0 <= eps-start < eps-end <= 1")
    linalg.as_integer(args.steps, "steps", 2)
    levels = tuple(s.strip() for s in args.levels.split(","))
    for name in levels:
        if name not in eigenfreq.LEVELS:
            raise ValueError(f"unknown level {name!r}")
    columns = sweep_rows(model, np.linspace(args.eps_start, args.eps_end, args.steps), levels)
    head, row, sep, last, tail, cells, null = _sweep_layout(args.format, model, columns)
    rows = len(columns["mode"])
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, rows)
            template = sep.join([row] * (stop - start)) + (sep if stop < rows else last)
            fields = [None] * (len(cells) * (stop - start))
            for j, column in enumerate(cells):
                fields[j :: len(cells)] = _block_cells(column[start:stop], null)
            fh.write(template % tuple(fields))
        if tail:
            fh.write(tail)
    print(f"wrote {rows} rows ({args.steps} grid points) to {args.out}")
    return 0


# The initial state of every time-domain check.
PSI0 = np.array([0.6 + 0.2j, -0.3 + 0.4j, 0.5 - 0.1j])


def _abs_ratios(model: ThreeModeModel) -> tuple[float, float, float]:
    ratios = threemode.xyz(model)
    return (abs(ratios.X), abs(ratios.Y), abs(ratios.Z))


def _coupling_table(key, model, tol):
    expected = COUPLING_TABLE[key]
    worst = max(abs(g - e) for g, e in zip(_abs_ratios(model), expected))
    return worst <= tol, f"|X|,|Y|,|Z| within {worst:.2e} of {expected}"


def _zero_eigenvalue(key, model, tol):
    eigs = linalg.eigenvalues(threemode.omega_matrix(model, 1.0))
    smallest = min(abs(v) for v in eigs)
    return smallest < tol, f"min |lambda(Omega(1))| = {smallest:.2e}"


def _analytic_vs_quadrature(key, model, tol):
    worst = 0.0
    for eps in (0.3, 1.0):
        at_eps = model.at_epsilon(eps)
        system = threemode.perturbed_system(at_eps)
        coeffs = {t: dyson.terms(system, 3, t, PSI0, 2000) for t in (0.5, 1.0)}
        for order in range(4):
            for t in (0.5, 1.0):
                closed = threemode.psi1_analytic(at_eps, order, t, PSI0)
                quad = linalg._pow_or_inf(eps, order) * coeffs[t][order][0]
                worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-14))
    return worst <= tol, f"orders 0..3 worst relative deviation {worst:.2e}"


def _expansion_vs_propagator(key, model, tol):
    system = threemode.perturbed_system(model.at_epsilon(0.2))
    report = dyson.convergence_report(
        system, 1.0, PSI0, orders=(0, 2, 4, 6, 8), eps_grid=[0.2], steps=1000
    )
    final, monotone = float(report.residuals[-1, 0]), report.monotone[0]
    return (
        final <= tol and monotone,
        f"order-8 residual {final:.2e} at eps=0.2, monotone={monotone}",
    )


def _block_equivalence(key, model, tol):
    trunc = SeriesTruncation(k_max=3)
    system = threemode.perturbed_system(model)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        blocks = threemode.psi1_infinite(model, t, PSI0, trunc, order_cap=9)
        quad = dyson.partial_sum(system, 9, t, PSI0, 4000)[0]
        worst = max(worst, abs(blocks - quad))
    return worst <= tol, f"nine blocks vs order-9 quadrature, worst {worst:.2e}"


def _resummation_vs_propagator(key, model, tol):
    trunc = SeriesTruncation(k_max=4)
    full = threemode.omega_matrix(model)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        resummed = threemode.psi1_infinite(model, t, PSI0, trunc)
        exact = linalg.matrix_exponential_apply(full, t, PSI0)[0]
        worst = max(worst, abs(resummed - exact))
    return worst <= tol, f"k_max=4 resummation vs propagator, worst {worst:.2e}"


# The verify suite, run in this order: (printed name, default tolerance,
# depth, check).  "quick" rows always run, "full" rows at --depth full, and
# "series" rows at --depth full only when every |X|,|Y|,|Z| < 1, the paper's
# small-coupling condition, not a convergence test (see the README).  A check
# maps (benchmark id, model, tolerance) to (passed, detail).
VERIFY_CHECKS = (
    ("coupling-table", 5e-4, "quick", _coupling_table),
    ("zero-eigenvalue", 1e-9, "quick", _zero_eigenvalue),
    ("analytic-vs-quadrature", 1e-7, "quick", _analytic_vs_quadrature),
    ("expansion-vs-propagator", 1e-5, "full", _expansion_vs_propagator),
    ("block-equivalence", 1e-5, "series", _block_equivalence),
    ("resummation-vs-propagator", 5e-4, "series", _resummation_vs_propagator),
)


def _cmd_verify(args) -> int:
    override = os.environ.get("OSC_PERT_TOL")
    forced = None if override is None else float(override)
    if forced is not None and not 0.0 < forced < math.inf:
        raise ValueError(f"OSC_PERT_TOL must be a finite positive float, got {override!r}")
    key = canonical_id(args.model)
    model = registry(key)
    ratios = _abs_ratios(model)
    full = args.depth == "full"
    runs = {"quick": True, "full": full, "series": full and max(ratios) < 1.0}
    results = []
    for name, tol, depth, check in VERIFY_CHECKS:
        if runs[depth]:
            ok, detail = check(key, model, tol if forced is None else forced)
            results.append(ok)
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if full and not runs["series"]:
        print(
            "SKIP block-equivalence / resummation: coupling ratios "
            f"{ratios} outside the convergence regime"
        )
    print(f"{sum(results)}/{len(results)} checks passed for model '{key}'")
    return 0 if all(results) else 1


def _decomposition_parts(arrays: dict) -> list[str]:
    """json.dumps(nested lists, sort_keys=True, indent=2, allow_nan=False) + "\n"
    of a dict of 1-D and 2-D float64 arrays, as one str part per array.

    Every array is checked for non-finite entries before any text is built.
    json.dumps with an indent formats entry by entry in Python; most entries
    are zeros, so here each array is one join over its breakpoints only: the
    entries whose bits are non-zero (-0.0 keeps its sign) and the row ends.
    Each breakpoint's word (float.__repr__ runs once per distinct bit pattern
    across all arrays) is followed by one joint: its separator (within a row
    or between rows) and the run of "0.0" lines before the next breakpoint.
    """
    keys = sorted(arrays)
    for key in keys:
        if not np.isfinite(arrays[key]).all():
            raise ValueError(f"Out of range float values are not JSON compliant in {key}")
    rows = [arrays[key].reshape(-1, arrays[key].shape[-1]).view(np.int64) for key in keys]
    cuts = [np.flatnonzero((r != 0) | (np.arange(r.shape[1]) == r.shape[1] - 1)) for r in rows]
    table, index = np.unique(np.concatenate([r.reshape(-1)[c] for r, c in zip(rows, cuts)]), return_inverse=True)
    words = np.array(list(map(float.__repr__, table.view(np.float64).tolist())), dtype=object)
    parts = []
    for key, r, cut, idx in zip(keys, rows, cuts, np.split(index, np.cumsum([len(c) for c in cuts])[:-1])):
        nested = arrays[key].ndim == 2
        inner = "      " if nested else "    "
        end = ("\n    ]" if nested else "") + "\n  ]" + ("\n}\n" if key == keys[-1] else ",\n")
        gaps = np.diff(cut, prepend=-1) - 1
        runs = [("0.0,\n" + inner) * m if n else "" for m, n in enumerate(np.bincount(gaps).tolist())]
        joints = np.array([sep + run for sep in (",\n" + inner, "\n    ],\n    [\n      ") for run in runs], dtype=object)
        pieces = np.empty(2 * len(cut) + 1, dtype=object)
        pieces[0] = ("" if parts else "{\n") + f'  "{key}": [\n' + ("    [\n" if nested else "") + inner + runs[gaps[0]]
        pieces[1::2] = words[idx]
        pieces[2:-1:2] = joints[(cut[:-1] % r.shape[1] == r.shape[1] - 1) * len(runs) + gaps[1:]]
        pieces[-1] = end
        parts.append("".join(pieces.tolist()))
    return parts


def _cmd_decompose(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g = graph.WeightedDigraph.from_json(fh.read())
    lap = graph.laplacian(g)
    li = None
    if args.li is not None:
        with open(args.li, encoding="utf-8") as fh:
            text = fh.read()
        li = json.loads(text)
        graph.check_json_rows(text, li, "LI JSON")
    dec = graph.decompose(lap, li=li)
    parts = _decomposition_parts(
        {"L": dec.L, "L0": dec.L0, "LI": dec.LI, "certificate": dec.certificate, "scaling": dec.scaling}
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        print(f"wrote decomposition to {args.out}")
    else:
        sys.stdout.writelines(parts)
    return 0


def _cmd_xyz(args) -> int:
    model = _load_model(args.model, epsilon=args.epsilon)
    ratios = threemode.xyz(model)
    print(
        json.dumps(
            {
                "epsilon": model.epsilon,
                "X": ratios.X,
                "Y": ratios.Y,
                "Z": ratios.Z,
                "abs": [abs(ratios.X), abs(ratios.Y), abs(ratios.Z)],
            },
            sort_keys=True,
            indent=2,
            allow_nan=False,
        )
    )
    return 0


def _cmd_term(args) -> int:
    model = _load_model(args.model, epsilon=args.epsilon)
    psi0 = _parse_psi0(args.psi0)
    system = threemode.perturbed_system(model)
    coeff = dyson.term(system, args.order, args.t, psi0, args.steps)
    out = {
        "order": args.order,
        "t": args.t,
        "epsilon": model.epsilon,
        "term": [[v.real, v.imag] for v in coeff],
    }
    if args.order <= 3:
        closed = threemode.psi1_analytic(model, args.order, args.t, psi0)
        scaled = linalg._pow_or_inf(model.epsilon, args.order) * coeff[0]
        out["psi1_closed_form"] = [closed.real, closed.imag]
        out["psi1_deviation"] = abs(closed - scaled)
    print(json.dumps(out, sort_keys=True, indent=2, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscpert",
        description="Oscillation-mode perturbation analysis harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="eigenfrequency sweep over epsilon")
    p.add_argument("--model", required=True, help="m|s|l, full id, or @model.json")
    p.add_argument("--eps-start", type=float, default=0.0)
    p.add_argument("--eps-end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--levels", default="app0,app1,app2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="cross-oracle verification suite")
    p.add_argument("--model", required=True, help="m|s|l or full benchmark id")
    p.add_argument("--depth", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", help="Laplacian decomposition of a graph")
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.add_argument("--li", help="explicit one-way Laplacian JSON path")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("xyz", help="coupling ratios X, Y, Z")
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=_cmd_xyz)

    p = sub.add_parser("term", help="expansion-order coefficient")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--psi0", default="1,0,0")
    p.set_defaults(func=_cmd_term)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """main's parser, one per process: parse_args leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:  # bad input; a JSONDecodeError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OscPertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
