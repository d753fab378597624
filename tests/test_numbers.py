"""What counts as a number, at every public entry point.

Every entry point reads its numbers through the intakes of `linalg`: a bool
is never a number, a str is never parsed, None, a complex where a real is
due, NaN and +-inf are refused, and each refusal is a ValueError (never a
TypeError, never a result).  numpy scalars are accepted.  A wrong shape or
model id is bad input too, and a ValueError; no OscPertError, the typed
refusal of a result, is one.
"""
import ast
import json
import math
import pathlib
import re

import numpy as np
import pytest

from oscpert import benchmarks, dyson, eigenfreq, errors, graph, linalg, threemode
from oscpert.benchmarks import registry
from oscpert.dyson import PerturbedSystem
from oscpert.threemode import SeriesTruncation, ThreeModeModel

PSI0 = [0.6 + 0.2j, -0.3 + 0.4j, 0.5 - 0.1j]
MODEL = registry("s", epsilon=0.5)
TRUNC = SeriesTruncation(k_max=2)
SYSTEM = threemode.perturbed_system(MODEL)
FIG1_L = [[3.0, -2.0, -1.0], [-3.0, 6.0, -3.0], [-4.0, -2.0, 6.0]]

BAD = [True, np.True_, "1", 1j, None, math.nan]
BAD_IDS = ["True", "np.True_", "str", "complex", "None", "nan"]
COMPLEX, DEFAULT = ("complex",), ("None",)


def _model(**fields):
    return ThreeModeModel(**{"omega": (9, 6, 0), "a": (1, 2, 1), "d": (1.5, 1.6, 0.025), "epsilon": 0.5, **fields})


def _grid(v):
    return [v, v]


def _square(v):
    return [[v, v], [v, v]]


# (entry point, call with the bad value in its place, the bad values that are
# valid there: a complex where a complex array is due, None where it names
# the default, NaN where only the dtype is read).  An array argument is made of the bad value alone: numpy
# reads a list that mixes bools into numbers as a number array.
ENTRY_POINTS = [
    ("linalg.as_real", lambda v: linalg.as_real(v, "x"), ()),
    ("linalg.as_integer", lambda v: linalg.as_integer(v, "x"), ()),
    ("linalg.as_array", lambda v: linalg.as_array(_grid(v), "x", float), ("nan",)),  # dtype only
    ("linalg.as_vector", lambda v: linalg.as_vector(_grid(v)), COMPLEX),
    ("linalg.as_square_matrix", lambda v: linalg.as_square_matrix(_square(v)), COMPLEX),
    ("linalg.eigenvalues", lambda v: linalg.eigenvalues(_square(v)), COMPLEX),
    ("linalg.eigenvalues stack", lambda v: linalg.eigenvalues([_square(v)]), COMPLEX),
    ("linalg.propagator t", lambda v: linalg.propagator(FIG1_L, v), ()),
    ("linalg.matrix_exponential_apply t", lambda v: linalg.matrix_exponential_apply(FIG1_L, v, PSI0), ()),
    ("linalg.matrix_exponential_apply v", lambda v: linalg.matrix_exponential_apply(FIG1_L, 1.0, [v] * 3), COMPLEX),
    ("ThreeModeModel omega", lambda v: _model(omega=(9, v, 0)), ()),
    ("ThreeModeModel a", lambda v: _model(a=(v, 2, 1)), ()),
    ("ThreeModeModel d", lambda v: _model(d=(1.5, 1.6, v)), ()),
    ("ThreeModeModel epsilon", lambda v: _model(epsilon=v), ()),
    ("ThreeModeModel.at_epsilon", lambda v: MODEL.at_epsilon(v), ()),
    ("ThreeModeModel.from_json_dict", lambda v: ThreeModeModel.from_json_dict(
        {"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025], "epsilon": v}), ()),
    ("benchmarks.registry", lambda v: registry("s", epsilon=v), ()),
    ("SeriesTruncation k_max", lambda v: SeriesTruncation(k_max=v), ()),
    ("SeriesTruncation tail_tol", lambda v: SeriesTruncation(tail_tol=v), ()),
    ("threemode.omega_matrix", lambda v: threemode.omega_matrix(MODEL, _grid(v)), ()),
    ("threemode.omega_matrix scalar", lambda v: threemode.omega_matrix(MODEL, v), DEFAULT),
    ("threemode.psi1_analytic n", lambda v: threemode.psi1_analytic(MODEL, v, 0.5, PSI0), ()),
    ("threemode.psi1_analytic t", lambda v: threemode.psi1_analytic(MODEL, 2, v, PSI0), ()),
    ("threemode.psi1_analytic psi0", lambda v: threemode.psi1_analytic(MODEL, 2, 0.5, [v] * 3), COMPLEX),
    ("threemode.series_block t", lambda v: threemode.series_block(MODEL, "A1", v, TRUNC), ()),
    ("threemode.psi1_infinite t", lambda v: threemode.psi1_infinite(MODEL, v, PSI0, TRUNC), ()),
    ("threemode.psi1_infinite order_cap",
     lambda v: threemode.psi1_infinite(MODEL, 0.5, PSI0, TRUNC, order_cap=v), DEFAULT),
    ("threemode.psi1_infinite shell_tol",
     lambda v: threemode.psi1_infinite(MODEL, 0.5, PSI0, TRUNC, shell_tol=v), DEFAULT),
    ("PerturbedSystem omega0", lambda v: PerturbedSystem(omega0=_grid(v), omegaI=np.eye(2), epsilon=0.5), ()),
    ("PerturbedSystem omegaI", lambda v: PerturbedSystem(omega0=(1.0, 2.0), omegaI=_square(v), epsilon=0.5), COMPLEX),
    ("PerturbedSystem epsilon", lambda v: PerturbedSystem(omega0=(1.0, 2.0), omegaI=np.eye(2), epsilon=v), ()),
    ("PerturbedSystem.full_matrix", lambda v: SYSTEM.full_matrix(v), DEFAULT),
    ("dyson.terms order", lambda v: dyson.terms(SYSTEM, v, 1.0, PSI0, 100), ()),
    ("dyson.terms t", lambda v: dyson.terms(SYSTEM, 1, v, PSI0, 100), ()),
    ("dyson.terms steps", lambda v: dyson.terms(SYSTEM, 1, 1.0, PSI0, v), ()),
    ("dyson.terms psi0", lambda v: dyson.terms(SYSTEM, 1, 1.0, [v] * 3, 100), COMPLEX),
    ("dyson.term order", lambda v: dyson.term(SYSTEM, v, 1.0, PSI0, 100), ()),
    ("dyson.term t", lambda v: dyson.term(SYSTEM, 1, v, PSI0, 100), ()),
    ("dyson.partial_sum order", lambda v: dyson.partial_sum(SYSTEM, v, 1.0, PSI0, 100), ()),
    ("dyson.partial_sum t", lambda v: dyson.partial_sum(SYSTEM, 1, v, PSI0, 100), ()),
    ("dyson.partial_sum steps", lambda v: dyson.partial_sum(SYSTEM, 1, 1.0, PSI0, v), ()),
    ("dyson.convergence_report orders",
     lambda v: dyson.convergence_report(SYSTEM, 1.0, PSI0, orders=(0, v), eps_grid=[0.5], steps=100), ()),
    ("dyson.convergence_report eps_grid",
     lambda v: dyson.convergence_report(SYSTEM, 1.0, PSI0, orders=(0, 1), eps_grid=[0.5, v], steps=100), ()),
    ("dyson.convergence_report t",
     lambda v: dyson.convergence_report(SYSTEM, v, PSI0, orders=(0, 1), eps_grid=[0.5], steps=100), ()),
    ("eigenfreq.estimate_increments", lambda v: eigenfreq.estimate_increments(MODEL, v), ()),
    ("eigenfreq.estimate", lambda v: eigenfreq.estimate(MODEL, v, "app1"), ()),
    ("eigenfreq.matched_path", lambda v: eigenfreq.matched_path(MODEL, _grid(v)), ()),
    ("eigenfreq.spectral_grid", lambda v: eigenfreq.spectral_grid(MODEL, _grid(v)), ()),
    ("eigenfreq.report", lambda v: eigenfreq.report(MODEL, v), ()),
    ("eigenfreq.transition_epsilon lo", lambda v: eigenfreq.transition_epsilon(registry("l"), v, 1.0), ()),
    ("eigenfreq.transition_epsilon hi", lambda v: eigenfreq.transition_epsilon(registry("l"), 0.0, v), ()),
    ("WeightedDigraph n", lambda v: graph.WeightedDigraph(n=v, edges=()), ()),
    ("WeightedDigraph edges", lambda v: graph.WeightedDigraph(n=2, edges=[[v, v, v]]), ()),
    ("graph.check_json_rows", lambda v: graph.check_json_rows("t", [[v]], "x"), ()),
    ("graph.scaling_from_certificate", lambda v: graph.scaling_from_certificate(_grid(v)), ()),
    ("graph.symmetrizability_certificate", lambda v: graph.symmetrizability_certificate(_square(v)), ()),
    ("graph.decompose L", lambda v: graph.decompose(_square(v)), ()),
    ("graph.decompose li", lambda v: graph.decompose(FIG1_L, li=[[v] * 3] * 3), ()),
]

_MODEL_ONLY = "takes a ThreeModeModel, whose constructor is in the table"

# Public callables that read no number of their own, each with the reason.
EXEMPT = {
    "graph.LaplacianDecomposition": "a result record, built by graph.decompose",
    "graph.laplacian": "takes a WeightedDigraph, whose constructor is in the table",
    "graph.validate_decomposition": "takes a LaplacianDecomposition, built by graph.decompose",
    "dyson.ConvergenceReport": "a result record, built by dyson.convergence_report",
    "threemode.XYZ": "a result record, built by threemode.xyz",
    "threemode.effective_frequencies": _MODEL_ONLY,
    "threemode.perturbed_system": _MODEL_ONLY,
    "threemode.xyz": _MODEL_ONLY,
    "threemode.cyclic_view": "takes a ThreeModeModel and a target name, which is text",
    "eigenfreq.EigenfrequencyReport": "a result record, built by eigenfreq.report",
    "eigenfreq.SpectralGrid": "a result record, built by eigenfreq.spectral_grid",
    "eigenfreq.exceptional_points": _MODEL_ONLY,
    "eigenfreq.true_eigenfrequencies": _MODEL_ONLY,
    "benchmarks.canonical_id": "takes a model name, which is text",
}

MODULES = {"linalg": linalg, "graph": graph, "dyson": dyson, "threemode": threemode,
           "eigenfreq": eigenfreq, "benchmarks": benchmarks}


def _public_callables():
    """'module.name' of every callable a module defines without a leading underscore."""
    return {
        f"{key}.{name}"
        for key, module in MODULES.items()
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__
    }


def _row_callable(row_id):
    """The callable a row reads: 'linalg.eigenvalues stack' -> 'linalg.eigenvalues',
    'ThreeModeModel.at_epsilon' -> 'threemode.ThreeModeModel'."""
    head = row_id.split()[0].split(".")
    if head[0] in MODULES:
        return ".".join(head[:2])
    (owner,) = (key for key, module in MODULES.items()
                if getattr(getattr(module, head[0], None), "__module__", None) == module.__name__)
    return f"{owner}.{head[0]}"


def test_every_public_callable_has_a_row_or_an_exemption():
    public, rows = _public_callables(), {_row_callable(row[0]) for row in ENTRY_POINTS}
    assert public - rows - EXEMPT.keys() == set()
    assert rows | EXEMPT.keys() <= public  # no row or exemption names a callable that is gone
    assert rows & EXEMPT.keys() == set()


@pytest.mark.parametrize("bad, kind", zip(BAD, BAD_IDS), ids=BAD_IDS)
@pytest.mark.parametrize("call, valid", [c[1:] for c in ENTRY_POINTS], ids=[c[0] for c in ENTRY_POINTS])
def test_not_a_number_is_a_value_error(call, valid, bad, kind):
    if kind in valid:
        call(bad)
        return
    with pytest.raises(ValueError):
        call(bad)


# Each row has a fixed id, so a row added or deleted renames no other; the
# older rows keep the ids they had by position.
@pytest.mark.parametrize("call, plain, numpy", [
    pytest.param(lambda x: linalg.as_real(x, "x"), 0.25, np.float64(0.25), id="<lambda>-0.25-0.25"),
    pytest.param(lambda k: linalg.as_integer(k, "k"), 3, np.int64(3), id="<lambda>-3-numpy1"),
    pytest.param(lambda t: linalg.propagator(FIG1_L, t), 0.5, np.float64(0.5), id="<lambda>-0.5-0.5_0"),
    pytest.param(lambda e: registry("m", epsilon=e), 0.5, np.float64(0.5), id="<lambda>-0.5-0.5_1"),
    pytest.param(lambda e: registry("m", epsilon=e), 1, np.int64(1), id="<lambda>-1-numpy4"),
    pytest.param(lambda k: SeriesTruncation(k_max=k), 3, np.int64(3), id="<lambda>-3-numpy5"),
    pytest.param(lambda k: SeriesTruncation(k_max=k).k_max, 3, np.int64(3), id="<lambda>-3-numpy6"),
    pytest.param(lambda n: threemode.psi1_analytic(MODEL, n, 0.5, PSI0), 3, np.int64(3),
                 id="<lambda>-3-numpy7"),
    pytest.param(lambda t: threemode.psi1_analytic(MODEL, 3, t, PSI0), 0.5, np.float64(0.5),
                 id="<lambda>-0.5-0.5_2"),
    pytest.param(lambda t: threemode.psi1_infinite(MODEL, t, PSI0, TRUNC), 0.5, np.float64(0.5),
                 id="<lambda>-0.5-0.5_3"),
    pytest.param(lambda c: threemode.psi1_infinite(MODEL, 0.5, PSI0, TRUNC, order_cap=c), 6, np.int64(6),
                 id="<lambda>-6-numpy10"),
    pytest.param(lambda k: dyson.terms(SYSTEM, k, 0.5, PSI0, 100)[-1], 2, np.int64(2),
                 id="<lambda>-2-numpy11"),
    pytest.param(lambda t: dyson.partial_sum(SYSTEM, 2, t, PSI0, 100), 0.5, np.float64(0.5),
                 id="<lambda>-0.5-0.5_4"),
    pytest.param(lambda s: dyson.term(SYSTEM, 2, 0.5, PSI0, s), 100, np.int64(100),
                 id="<lambda>-100-numpy13"),
    pytest.param(lambda e: SYSTEM.full_matrix(e), 0.5, np.float64(0.5), id="<lambda>-0.5-0.5_5"),
    pytest.param(lambda w: eigenfreq.estimate(MODEL, w, "app2"), 2, np.int64(2), id="<lambda>-2-numpy15"),
    pytest.param(lambda e: eigenfreq.report(MODEL, e).true_values, 0.5, np.float64(0.5),
                 id="<lambda>-0.5-0.5_6"),
    pytest.param(lambda e: eigenfreq.transition_epsilon(registry("l"), e, 1.0), 0.0, np.float64(0.0),
                 id="<lambda>-0.0-0.0"),
    pytest.param(lambda n: graph.WeightedDigraph(n=n, edges=((0, 1, 2.0),)).n, 2, np.int64(2),
                 id="<lambda>-2-numpy18"),
    pytest.param(lambda t: dyson.convergence_report(SYSTEM, t, PSI0, (0, 1), [0.5], 100).t, 0.5, np.float64(0.5),
                 id="<lambda>-0.5-0.5_7"),
    pytest.param(lambda x: SeriesTruncation(tail_tol=x).tail_tol, 1e-9, np.float64(1e-9),
                 id="<lambda>-1e-09-1e-09"),
    pytest.param(lambda c: threemode.series_block(MODEL, "A1", 0.5, TRUNC, order_cap=c), 1502, np.int64(1502),
                 id="series_block order_cap at its bound"),
])
def test_numpy_scalars_are_numbers(call, plain, numpy):
    want, got = call(plain), call(numpy)
    assert type(got) is type(want)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_refusals_name_the_argument():
    for call, message in [
        (lambda: dyson.terms(SYSTEM, 1, True, PSI0, 100), "^t must be a real number, got True$"),
        (lambda: dyson.terms(SYSTEM, 1, "x", PSI0, 100), "^t must be a real number, got 'x'$"),
        (lambda: eigenfreq.report(MODEL, "0.5"), "^eps_grid must hold real numbers, got <U3 entries$"),
        (lambda: linalg.as_vector(["1", "0", "0"], name="psi0"), "^psi0 must hold numbers, got <U1 entries$"),
        (lambda: graph.WeightedDigraph(n=2, edges=[["0", "1", "1.5"]]), "^graph edges must hold real numbers"),
        (lambda: threemode.psi1_infinite(MODEL, True, PSI0, TRUNC), "^t must be a real number, got True$"),
        (lambda: linalg.as_integer(np.float64(2.0), "order"), r"^order must be an integer, got np\.float64\(2\.0\)$"),
        (lambda: linalg.as_real(10**400, "x"), "^x must be finite$"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()


class TestJsonBools:
    """A JSON true or false among the numbers of a graph's edges or of LI
    rows is refused: numpy alone would read it as 1 or 0."""

    def test_graph_edge(self):
        text = json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, True]]})
        with pytest.raises(ValueError, match='^graph JSON "edges" must be a real number, got True$'):
            graph.WeightedDigraph.from_json(text)

    def test_graph_node(self):
        with pytest.raises(ValueError, match='^graph JSON "edges" must be a real number, got False$'):
            graph.WeightedDigraph.from_json('{"n": 3, "edges": [[false, 1, 1.0]]}')

    def test_a_bool_elsewhere_is_no_edge_entry(self):
        text = json.dumps({"n": 2, "edges": [[0, 1, 2.5]], "directed": True, "name": "false"})
        assert graph.WeightedDigraph.from_json(text).edges.tolist() == [[0.0, 1.0, 2.5]]

    def test_li_rows(self):
        with pytest.raises(ValueError, match="^LI JSON must be a real number, got True$"):
            graph.check_json_rows("[[1, true]]", [[1, True]], "LI JSON")


SHAPES = {"1x3": [[1.0, -1.0, 0.0]], "empty": np.empty((0, 0)), "3-D": np.zeros((2, 2, 2))}
SQUARE_INTAKES = {
    "L": graph.decompose,
    "LI": lambda m: graph.decompose(FIG1_L, li=m),
    "L0": graph.symmetrizability_certificate,
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", SQUARE_INTAKES)
def test_a_graph_matrix_of_the_wrong_shape_is_a_value_error(name, shape):
    want = f"{name} must be a non-empty square matrix, got shape {np.shape(SHAPES[shape])}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        SQUARE_INTAKES[name](SHAPES[shape])


@pytest.mark.parametrize("call, length", [
    pytest.param(lambda: threemode.psi1_infinite(MODEL, 0.5, PSI0[:2], TRUNC), 2, id="threemode.psi1_infinite"),
    pytest.param(lambda: dyson.terms(SYSTEM, 1, 0.5, PSI0 + [0.0], 100), 4, id="dyson.terms"),
])
def test_a_psi0_of_the_wrong_length_is_a_value_error(call, length):
    with pytest.raises(ValueError, match=f"^psi0 has length {length}, expected 3$"):
        call()


COARSE = "^steps=20 too coarse for order 3; need >= 30$"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dyson.terms(SYSTEM, 3, 0.5, PSI0, 20), COARSE, id="dyson.terms steps"),
    pytest.param(lambda: dyson.term(SYSTEM, 3, 0.5, PSI0, 20), COARSE, id="dyson.term steps"),
    pytest.param(lambda: dyson.partial_sum(SYSTEM, 3, 0.5, PSI0, 20), COARSE, id="dyson.partial_sum steps"),
    pytest.param(lambda: dyson.convergence_report(SYSTEM, 0.5, PSI0, (0, 3), [0.5], 20), COARSE,
                 id="dyson.convergence_report steps"),
    pytest.param(lambda: graph.decompose(FIG1_L, li=np.zeros((2, 2))),
                 r"^LI shape \(2, 2\) does not match L shape \(3, 3\)$", id="graph.decompose li"),
    pytest.param(lambda: threemode.series_block(MODEL, "A1", 0.5, TRUNC, order_cap=1503),
                 r"^order_cap must be <= 1502 \(MAX_TERMS=500\), got 1503$", id="threemode.series_block order_cap"),
    pytest.param(lambda: threemode.psi1_infinite(MODEL, 0.5, PSI0, TRUNC, order_cap=np.int64(30000)),
                 r"^order_cap must be <= 1502 \(MAX_TERMS=500\), got 30000$", id="threemode.psi1_infinite order_cap"),
    pytest.param(lambda: eigenfreq.transition_epsilon(registry("l"), -1, 1),
                 r"^eps_lo must be finite and non-negative, got -1\.0$", id="eigenfreq.transition_epsilon eps_lo"),
])
def test_an_argument_out_of_its_range_is_a_value_error(call, message):
    # steps below 10 * order, an LI not of L's shape, an order_cap whose
    # first 2F2 cell would sum past MAX_TERMS terms, and a transition bracket
    # that starts below eps = 0, where every grid starts, are bad input
    with pytest.raises(ValueError, match=message):
        call()


def test_no_refusal_is_a_value_error():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert errors.OscPertError in classes and all(issubclass(c, errors.OscPertError) for c in classes)
    assert not any(issubclass(c, ValueError) for c in classes)
    gone = ("DimensionMismatch", "UnknownModel", "ResolutionTooCoarse",
            "EstimateOverflow", "MaxTermsExceeded", "TruncationNotConverged")
    assert not any(hasattr(errors, name) for name in gone)
    # one type per kind of failure, and each is raised somewhere in src/
    refusals = {c.__name__ for c in classes} - {"OscPertError"}
    assert refusals == {
        "NonConvergence", "NotSymmetrizable", "InvalidDecomposition",
        "DegenerateFrequencies", "NoTransition", "NonFiniteResult",
    }
    raised = set()
    for path in pathlib.Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert refusals <= raised, refusals - raised
