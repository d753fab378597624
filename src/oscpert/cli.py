"""Reproduction harness CLI.

Verbs:
    sweep      — eigenfrequency estimates vs truth over an epsilon grid
    verify     — cross-oracle consistency suite for a benchmark model
    decompose  — Laplacian decomposition of a graph JSON file
    xyz        — coupling ratios X, Y, Z of a model
    term       — one expansion-order coefficient (quadrature + closed form)

Exit codes: 0 success, 1 verification/validation failure, 2 usage or I/O
error.  Output is byte-deterministic for a fixed invocation: the sweep CSV
prints floats with 17 significant digits in a fixed row order, and the
decompose JSON is exactly json.dumps(..., sort_keys=True, indent=2) of the
nested lists, so floats take their shortest round-trip form.

`verify` runs the rows of VERIFY_CHECKS that its --depth selects and prints
one PASS/FAIL line per row: the quick rows always, the full rows at --depth
full, and the series rows at --depth full when every |X|,|Y|,|Z| < 1;
otherwise one SKIP line follows the last row that ran.  The environment
variable OSC_PERT_TOL, when set to a finite positive float, overrides every
row's tolerance (any other value is a usage error, raised before any output).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dyson, eigenfreq, graph, linalg, threemode
from .benchmarks import COUPLING_TABLE, canonical_id, registry
from .errors import OscPertError, UnknownModel
from .threemode import SeriesTruncation, ThreeModeModel

CSV_HEADER = (
    "epsilon,mode,true_re,true_im,app0,app1,app2,err0,err1,err2,"
    "real_spectrum,status"
)


def _load_model(spec: str, epsilon: float = 1.0) -> ThreeModeModel:
    """Benchmark alias (m/s/l or full id) or @path to a model JSON file."""
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            data = json.load(fh)
        model = ThreeModeModel.from_json_dict(data)
        return model if "epsilon" in data else model.at_epsilon(epsilon)
    return registry(spec, epsilon=epsilon)


def _parse_psi0(text: str) -> np.ndarray:
    try:
        parts = [complex(p.strip().replace("i", "j")) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse psi0 {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise ValueError(f"psi0 needs 3 components, got {len(parts)} in {text!r}")
    return np.array(parts, dtype=complex)


def sweep_rows(model: ThreeModeModel, eps_values, levels) -> dict[str, list]:
    """The sweep table as columns named as in CSV_HEADER, in its order.

    Entry r of every column belongs to row r, one row per (epsilon, mode).
    Formats eigenfreq.spectral_grid, which holds the matched truth, the
    estimates, and each mode's reality and errors; levels not in `levels`
    are NaN.  A grid point whose estimates are refused keeps its true
    values, carries NaN estimates and names the refusal in `status`.
    """
    grid = eigenfreq.spectral_grid(model, eps_values)
    true = grid.true_values.reshape(-1)
    real = grid.mode_real.reshape(-1)
    wanted = [name in levels for name in eigenfreq.LEVELS]
    ests = np.where(wanted, grid.estimates.reshape(-1, 3), np.nan)
    errs = np.where(wanted, grid.errors.reshape(-1, 3), np.nan)
    status = ["ok" if r is None else type(r).__name__ for r in grid.refusals for _ in range(3)]
    return {
        "epsilon": np.repeat(grid.epsilon, 3).tolist(),
        "mode": [1, 2, 3] * len(grid.epsilon),
        "true_re": true.real.tolist(),
        "true_im": true.imag.tolist(),
        **dict(zip(eigenfreq.LEVELS, ests.T.tolist())),
        **dict(zip(("err0", "err1", "err2"), errs.T.tolist())),
        "real_spectrum": real.tolist(),
        "status": status,
    }


# One CSV row; "%.17g" prints what f"{x:.17g}" prints, nan and -0 included.
_CSV_ROW = "%.17g,%d" + ",%.17g" * 8 + ",%s,%s"


def _cmd_sweep(args) -> int:
    model = _load_model(args.model)
    if not (0.0 <= args.eps_start < args.eps_end <= 1.0):
        raise ValueError("need 0 <= eps-start < eps-end <= 1")
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    levels = tuple(s.strip() for s in args.levels.split(","))
    for name in levels:
        if name not in eigenfreq.LEVELS:
            raise ValueError(f"unknown level {name!r}")
    try:
        eps_values = np.linspace(args.eps_start, args.eps_end, args.steps)
    except MemoryError as exc:
        raise ValueError(f"--steps {args.steps}: cannot allocate the epsilon grid") from exc
    columns = sweep_rows(model, eps_values, levels)
    if args.format == "csv":
        real = ["true" if r else "false" for r in columns["real_spectrum"]]
        rows = zip(*dict(columns, real_spectrum=real).values())
        payload = "\n".join([CSV_HEADER] + [_CSV_ROW % row for row in rows]) + "\n"
    else:
        nulled = {
            k: [None if isinstance(v, float) and math.isnan(v) else v for v in column]
            for k, column in columns.items()
        }
        clean = [dict(zip(nulled, row)) for row in zip(*nulled.values())]
        payload = json.dumps(
            {"model": model.to_json_dict(), "rows": clean},
            sort_keys=True,
            indent=2,
            allow_nan=False,
        ) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    print(f"wrote {len(columns['mode'])} rows ({args.steps} grid points) to {args.out}")
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
                quad = (eps**order) * coeffs[t][order][0]
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
    trunc = SeriesTruncation(k_max=3, tail_tol=1e-12)
    system = threemode.perturbed_system(model)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        blocks = threemode.psi1_infinite(model, t, PSI0, trunc, order_cap=9)
        quad = dyson.partial_sum(system, 9, t, PSI0, 4000)[0]
        worst = max(worst, abs(blocks - quad))
    return worst <= tol, f"nine blocks vs order-9 quadrature, worst {worst:.2e}"


def _resummation_vs_propagator(key, model, tol):
    trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
    full = threemode.omega_matrix(model)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        resummed = threemode.psi1_infinite(model, t, PSI0, trunc)
        exact = linalg.matrix_exponential_apply(full, t, PSI0)[0]
        worst = max(worst, abs(resummed - exact))
    return worst <= tol, f"k_max=4 resummation vs propagator, worst {worst:.2e}"


# The verify suite, run in this order: (printed name, default tolerance,
# depth, check).  "quick" rows always run, "full" rows at --depth full, and
# "series" rows at --depth full only when every |X|,|Y|,|Z| < 1, the regime
# where the infinite-order series converge.  A check maps
# (benchmark id, model, tolerance) to (passed, detail).
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


def _decomposition_json(arrays: dict) -> str:
    """json.dumps(nested lists, sort_keys=True, indent=2, allow_nan=False) + "\n"
    of a dict of float64 arrays.

    The json module falls back to its pure-Python encoder whenever `indent`
    is set; joining float.__repr__ of each row writes the same bytes for
    finite floats at a fraction of the cost.
    """
    fields = []
    for key in sorted(arrays):
        if not np.isfinite(arrays[key]).all():
            raise ValueError(f"Out of range float values are not JSON compliant in {key}")
        fields.append(f'  "{key}": ' + _json_array(arrays[key].tolist(), "  "))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _json_array(items: list, indent: str) -> str:
    inner = indent + "  "
    if isinstance(items[0], list):
        body = [_json_array(row, inner) for row in items]
    else:
        body = map(float.__repr__, items)
    return "[\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "]"


def _cmd_decompose(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g = graph.WeightedDigraph.from_json(fh.read())
    lap = graph.laplacian(g)
    li = None
    if args.li is not None:
        with open(args.li, encoding="utf-8") as fh:
            rows = json.load(fh)
        try:
            li = np.array(rows, dtype=float)
        except TypeError as exc:
            raise ValueError(f"LI JSON must be a list of number rows: {exc}") from exc
    dec = graph.decompose(lap, li=li)
    graph.validate_decomposition(dec)
    payload = _decomposition_json(
        {"L": dec.L, "L0": dec.L0, "LI": dec.LI, "certificate": dec.certificate, "scaling": dec.scaling}
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        print(f"wrote decomposition to {args.out}")
    else:
        print(payload, end="")
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
        scaled = (model.epsilon**args.order) * coeff[0]
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
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(func=_cmd_xyz)

    p = sub.add_parser("term", help="expansion-order coefficient")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--psi0", default="1,0,0")
    p.set_defaults(func=_cmd_term)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, UnknownModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OscPertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
