"""End-to-end tests of the command-line harness."""
import json

import numpy as np
import pytest

from oscpert import cli, eigenfreq, graph
from oscpert.benchmarks import registry
from oscpert.cli import CSV_HEADER, main, sweep_rows
from oscpert.threemode import ThreeModeModel

from oracles import inline_verify, rows_to_csv, rows_to_json, sweep_row_dicts

FIG1_GRAPH = {
    "n": 3,
    "edges": [[0, 1, 2], [0, 2, 1], [1, 0, 3], [1, 2, 3], [2, 0, 4], [2, 1, 2]],
}
FIG1_LI = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]


def run(*argv):
    return main(list(argv))


class TestSweep:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(
            "sweep", "--model", "s", "--eps-start", "0", "--eps-end", "1",
            "--steps", "5", "--format", "csv", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 5  # three modes per grid point
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[1] == "1"
        # at eps = 0 every estimate is exact
        assert float(first[7]) == 0.0 and float(first[8]) == 0.0 and float(first[9]) == 0.0
        assert first[10] == "true" and first[11] == "ok"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--model", "m", "--eps-start", "0", "--eps-end", "1", "--steps", "11"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reality_flip_interval(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(
            "sweep", "--model", "l", "--eps-start", "0", "--eps-end", "1",
            "--steps", "101", "--out", str(out),
        ) == 0
        flips = []
        for line in out.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] == "1":
                flips.append((float(cells[0]), cells[10] == "true"))
        last_real = max(e for e, real in flips if real)
        first_nonreal = min(e for e, real in flips if not real)
        assert 0.40 <= last_real < first_nonreal <= 0.50

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(
            "sweep", "--model", "s", "--steps", "3", "--format", "json",
            "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["model"]["omega"] == [9.0, 6.0, 0.0]
        assert len(payload["rows"]) == 9

    def test_model_file(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(
            {"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 34 / 21, 0.025]}
        ))
        out = tmp_path / "file.csv"
        assert run(
            "sweep", "--model", f"@{model_file}", "--steps", "3", "--out", str(out)
        ) == 0
        assert len(out.read_text().strip().splitlines()) == 10

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_rows_equal_estimate(self, mid):
        # every printed level is exactly what eigenfreq.estimate returns
        model = registry(mid)
        columns = sweep_rows(model, np.linspace(0.0, 1.0, 101), eigenfreq.LEVELS)
        assert list(columns) == CSV_HEADER.split(",")
        assert all(len(column) == 303 for column in columns.values())
        for r, (eps, mode) in enumerate(zip(columns["epsilon"], columns["mode"])):
            at_eps = model.at_epsilon(eps)
            for level in eigenfreq.LEVELS:
                assert columns[level][r] == eigenfreq.estimate(at_eps, mode, level)

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_errors_equal_report(self, mid):
        # one code path: report and sweep_rows format the same grid errors
        model = registry(mid)
        nonreal = 0
        for eps in (0.0, 0.3, 0.7, 1.0):
            rep = eigenfreq.report(model, eps)
            columns = sweep_rows(model, [eps], eigenfreq.LEVELS)
            assert columns["real_spectrum"] == list(rep.mode_real)
            for i, level in enumerate(eigenfreq.LEVELS):
                errs = np.array(columns[f"err{i}"])
                want = np.array([np.nan if e is None else e for e in rep.abs_errors[level]])
                assert errs.tobytes() == want.tobytes()
            nonreal += rep.mode_real.count(False)
        assert (nonreal > 0) == (mid == "l")

    def test_degenerate_rows_name_the_refusal(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(
            {"omega": [1, 2, 3.5], "a": [0.1, 0.2, 0.3], "d": [1, 0, 0]}
        ))
        out = tmp_path / "degenerate.csv"
        assert run(
            "sweep", "--model", f"@{model_file}", "--steps", "11", "--out", str(out)
        ) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 33
        for cells in rows:
            refused = float(cells[0]) == 1.0
            assert cells[11] == ("DegenerateFrequencies" if refused else "ok")
            assert (cells[4] == "nan") == refused

    @pytest.mark.parametrize("a, eps_zero_status", [(1e60, "ok"), (1e110, "EstimateOverflow")])
    def test_overflowing_estimates_name_the_refusal(self, tmp_path, capsys, a, eps_zero_status):
        # a = 1e60: W**2 overflows once eps > 0; a = 1e110: a1*a2*a3 is
        # already inf, so eps = 0 gives inf * 0 = nan
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"omega": [1, 2, 3.5], "a": [a] * 3, "d": [0, 0, 0]}))
        out = tmp_path / "overflow.csv"
        assert run(
            "sweep", "--model", f"@{model_file}", "--steps", "11", "--out", str(out)
        ) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 33
        for cells in rows:
            refused = float(cells[0]) > 0.0 or eps_zero_status != "ok"
            assert cells[11] == ("EstimateOverflow" if refused else "ok")
            assert all((cell == "nan") == refused for cell in cells[4:7])
            assert all(cell not in ("inf", "-inf") for cell in cells)

    def test_unallocatable_steps_is_usage_error(self, tmp_path, capsys):
        # the 7 PiB request for the epsilon grid fails at once
        out = tmp_path / "x.csv"
        assert run("sweep", "--model", "s", "--steps", "1000000000000000", "--out", str(out)) == 2
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run(
            "sweep", "--model", "s", "--eps-start", "0.9", "--eps-end", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ) == 2


DEGENERATE_MODEL = {"omega": [1, 2, 3.5], "a": [0.1, 0.2, 0.3], "d": [1, 0, 0]}


class TestSweepBytes:
    """sweep writes exactly what the row-dict writer writes for the per-point path."""

    CASES = [
        (mid, steps, "app0,app1,app2") for mid in ("s", "m", "l") for steps in (101, 10001)
    ] + [
        (mid, 101, levels) for mid in ("s", "m", "l") for levels in ("app0", "app1,app2")
    ] + [
        ("degenerate", 11, levels) for levels in ("app0,app1,app2", "app0", "app1,app2")
    ]

    @pytest.mark.parametrize("mid, steps, levels", CASES)
    def test_csv_and_json(self, tmp_path, mid, steps, levels):
        if mid == "degenerate":
            spec = tmp_path / "model.json"
            spec.write_text(json.dumps(DEGENERATE_MODEL))
            model = ThreeModeModel.from_json_dict(DEGENERATE_MODEL).at_epsilon(1.0)
            mid = f"@{spec}"
        else:
            model = registry(mid)
        rows = sweep_row_dicts(model, np.linspace(0.0, 1.0, steps), levels.split(","))
        for fmt, expected in (("csv", rows_to_csv(rows)), ("json", rows_to_json(model, rows))):
            out = tmp_path / f"sweep.{fmt}"
            assert run(
                "sweep", "--model", mid, "--steps", str(steps), "--levels", levels,
                "--format", fmt, "--out", str(out),
            ) == 0
            assert out.read_bytes() == expected.encode()


class TestVerify:
    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_quick_passes(self, mid, capsys):
        assert run("verify", "--model", mid) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith(("PASS", "SKIP")) or "checks passed" in line for line in lines)

    def test_full_small_model(self, capsys):
        assert run("verify", "--model", "s", "--depth", "full") == 0
        out = capsys.readouterr().out
        assert "block-equivalence" in out and "resummation-vs-propagator" in out

    def test_unknown_model(self, capsys):
        assert run("verify", "--model", "nope") == 2

    def test_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("OSC_PERT_TOL", "1e-20")
        assert run("verify", "--model", "s") == 1

    @pytest.mark.parametrize("tol", [None, "1e-20", "3e-4", "inf", "nan", "0", "-1", "abc"])
    @pytest.mark.parametrize("depth", ["quick", "full"])
    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_same_bytes_as_inline_checks(self, mid, depth, tol, monkeypatch, capsys):
        if tol is None:
            monkeypatch.delenv("OSC_PERT_TOL", raising=False)
        else:
            monkeypatch.setenv("OSC_PERT_TOL", tol)
        argv = ("verify", "--model", mid, "--depth", depth)
        code = run(*argv)
        out = capsys.readouterr().out
        monkeypatch.setattr(cli, "_cmd_verify", inline_verify)
        assert run(*argv) == code
        assert capsys.readouterr().out == out
        if tol in ("inf", "nan", "0", "-1", "abc"):
            assert code == 2 and out == ""
        elif tol == "3e-4":  # the coupling table fails, the rest pass
            assert code == 1 and "\nPASS " in out and out.startswith("FAIL coupling-table")

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc"])
    def test_bad_tolerance_override_is_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("OSC_PERT_TOL", value)
        assert run("verify", "--model", "s") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestDecompose:
    def test_explicit_worked_example(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        lpath = tmp_path / "li.json"
        gpath.write_text(json.dumps(FIG1_GRAPH))
        lpath.write_text(json.dumps(FIG1_LI))
        out = tmp_path / "dec.json"
        assert run(
            "decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["L0"] == [[2, -1, -1], [-3, 5, -2], [-3, -2, 5]]
        assert np.allclose(payload["certificate"], [3, 1, 1])

    def test_pairwise_min_default(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1, 2.0], [1, 0, 2.0]]}))
        assert run("decompose", "--graph", str(gpath)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["LI"] == [[0, 0], [0, 0]]

    def test_invalid_li(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        lpath = tmp_path / "li.json"
        gpath.write_text(json.dumps(FIG1_GRAPH))
        bad = [row[:] for row in FIG1_LI]
        bad[0][0] = 9.0  # break the zero row sum
        lpath.write_text(json.dumps(bad))
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath)) == 1

    def test_missing_file(self, tmp_path):
        assert run("decompose", "--graph", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("text", [
        '{"n": 3}',
        '[[0, 1, 2.0]]',
        '{"n": null, "edges": []}',
        '{"n": 2, "edges": {"0": [1, 2.0]}}',
        '{"n": 2, "edges": [[0, 1]]}',
        '{"n": 2, "edges": [[0, 1, null]]}',
        '{"n": 1e400, "edges": []}',
    ])
    def test_malformed_graph_is_usage_error(self, tmp_path, capsys, text):
        gpath = tmp_path / "g.json"
        gpath.write_text(text)
        assert run("decompose", "--graph", str(gpath)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ['{"0": [1, -1]}', '[{"0": 1}, [0, 0]]', '[[1, -1], [0]]'])
    def test_malformed_li_is_usage_error(self, tmp_path, capsys, text):
        gpath, lpath = tmp_path / "g.json", tmp_path / "li.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]]}))
        lpath.write_text(text)
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unallocatable_node_count_is_usage_error(self, tmp_path, capsys):
        # the 8e18-byte request for the dense Laplacian fails at once
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 1000000000, "edges": []}')
        assert run("decompose", "--graph", str(gpath)) == 2
        assert "n=1000000000" in capsys.readouterr().err

    def test_overflowing_certificate_is_refused(self, tmp_path, capsys):
        # each link multiplies the balance vector by 1e10: 1e390 overflows
        n = 40
        edges = [[i, i + 1, 1e10] for i in range(n - 1)] + [[i + 1, i, 1.0] for i in range(n - 1)]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": n, "edges": edges}))
        lpath.write_text(json.dumps([[0.0] * n] * n))
        assert run(
            "decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)
        ) == 1
        assert "InvalidDecomposition" in capsys.readouterr().err
        assert not out.exists()


def _random_graph(seed, n, density):
    rng = np.random.default_rng(seed)
    edges = [
        [i, j, float(rng.uniform(0.1, 3.0))]
        for i in range(n) for j in range(n) if i != j and rng.random() < density
    ]
    return {"n": n, "edges": edges}


class TestDecomposeBytes:
    """decompose writes exactly what json.dumps writes for the nested lists."""

    CASES = {
        "fig1": (FIG1_GRAPH, None),
        "fig1-li": (FIG1_GRAPH, FIG1_LI),
        "single-node": ({"n": 1, "edges": []}, None),
        "negative-zero-li": (FIG1_GRAPH, [[1, -1, -0.0], [-0.0, 1, -1], [-1, -0.0, 1]]),
        "random-30": (_random_graph(30, 30, 0.3), None),
    }

    @staticmethod
    def expected(graph_dict, li):
        g = graph.WeightedDigraph.from_json(json.dumps(graph_dict))
        dec = graph.decompose(graph.laplacian(g), li=None if li is None else np.array(li, float))
        return json.dumps(
            {
                "L": dec.L.tolist(),
                "L0": dec.L0.tolist(),
                "LI": dec.LI.tolist(),
                "certificate": dec.certificate.tolist(),
                "scaling": dec.scaling.tolist(),
            },
            sort_keys=True,
            indent=2,
            allow_nan=False,
        ) + "\n"

    def write_inputs(self, tmp_path, name):
        graph_dict, li = self.CASES[name]
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph_dict))
        argv = ["decompose", "--graph", str(gpath)]
        if li is not None:
            lpath = tmp_path / "li.json"
            lpath.write_text(json.dumps(li))
            argv += ["--li", str(lpath)]
        return argv, self.expected(graph_dict, li)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_file(self, tmp_path, capsys, name):
        argv, want = self.write_inputs(tmp_path, name)
        out = tmp_path / "dec.json"
        assert run(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == want.encode()
        if name == "negative-zero-li":
            assert "-0.0" in want

    def test_stdout(self, tmp_path, capsys):
        argv, want = self.write_inputs(tmp_path, "fig1-li")
        assert run(*argv) == 0
        assert capsys.readouterr().out == want


class TestXyzAndTerm:
    def test_xyz_reference_rounding(self, capsys):
        assert run("xyz", "--model", "m", "--epsilon", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [round(v, 3) for v in payload["abs"]] == [1.148, 1.416, 2.564]

    def test_term_cross_checks_closed_form(self, capsys):
        assert run(
            "term", "--model", "s", "--order", "2", "--t", "0.7",
            "--psi0", "0.3+0.1j,-0.2+0.4j,0.5-0.3j",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["psi1_deviation"] < 1e-10
        assert len(payload["term"]) == 3

    @pytest.mark.parametrize("text", [
        '{"omega": [9, 6, 0], "a": [1, 2, 1]}',
        '[[9, 6, 0], [1, 2, 1], [1.5, 1.6, 0.025]]',
        '{"omega": 9, "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, null], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025], "epsilon": null}',
    ])
    def test_malformed_model_is_usage_error(self, tmp_path, capsys, text):
        model_file = tmp_path / "model.json"
        model_file.write_text(text)
        assert run("xyz", "--model", f"@{model_file}") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_term_non_finite_time_is_usage_error(self, t, capsys):
        assert run("term", "--model", "s", "--order", "1", f"--t={t}") == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("psi0", ["1,0", "1,0,0,0"])
    def test_term_wrong_length_psi0_is_usage_error(self, psi0, capsys):
        assert run("term", "--model", "s", "--order", "1", "--t", "0.5", "--psi0", psi0) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: psi0 needs 3 components")
