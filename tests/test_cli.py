"""End-to-end tests of the command-line harness."""
import hashlib
import json
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscpert import cli, eigenfreq, graph, threemode
from oscpert.benchmarks import canonical_id, registry
from oscpert.cli import CSV_HEADER, main, sweep_rows
from oscpert.threemode import ThreeModeModel

from oracles import inline_verify, repr_json, rows_to_csv, rows_to_json, sweep_row_dicts
from test_graph import _bench_style_graph, _run_apart

FIG1_GRAPH = {
    "n": 3,
    "edges": [[0, 1, 2], [0, 2, 1], [1, 0, 3], [1, 2, 3], [2, 0, 4], [2, 1, 2]],
}
FIG1_LI = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]


def run(*argv):
    return main(list(argv))


def bench_golden(workload):
    """A workload's hashes in bench/golden.json; skips unless this is its environment."""
    golden = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
    captured = golden["captured"]
    for key, value in (("python", platform.python_version()), ("numpy", np.__version__)):
        if captured[key] != value:
            pytest.skip(f"bench/golden.json was captured with {key} {captured[key]}, not {value}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    if captured["blas"] != blas:
        pytest.skip(f"bench/golden.json was captured with {captured['blas']}, not {blas}")
    return golden[workload]


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

    def test_model_below_unit_scale_keeps_its_labels(self, tmp_path):
        # `large` with every w, a and d times 1e-60 has the same EPs, so each
        # true_im cell has the sign it has at unit scale
        m = registry("l")
        model_file = tmp_path / "tiny-l.json"
        model_file.write_text(json.dumps({k: [1e-60 * x for x in getattr(m, k)] for k in ("omega", "a", "d")}))
        signs = []
        for model in ("l", f"@{model_file}"):
            out = tmp_path / "sweep.csv"
            assert run("sweep", "--model", model, "--steps", "1001", "--out", str(out)) == 0
            signs.append([np.sign(float(line.split(",")[3])) for line in out.read_text().splitlines()[1:]])
        assert signs[0] == signs[1] and signs[0].count(1.0) > 300

    def test_reality_below_unit_scale_is_that_of_unit_scale(self, tmp_path):
        # `large` times 1e-12: the unit-floored threshold marked all 3,003
        # rows real and wrote errors against the real parts of 1,098 complex modes
        m = registry("l")
        model_file = tmp_path / "tiny-l.json"
        model_file.write_text(json.dumps({k: [1e-12 * x for x in getattr(m, k)] for k in ("omega", "a", "d")}))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", f"@{model_file}", "--steps", "1001", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        real = [row[10] == "true" for row in rows]
        assert real.count(True) == 1905 and len(real) == 3003
        for row, is_real in zip(rows, real):
            assert all(np.isnan(float(cell)) != is_real for cell in row[7:10]), row

    def test_pair_opening_at_zero_is_not_real(self, tmp_path):
        # w = (1, 1, 1), d = (0, 1, 2): a conjugate pair for every eps > 0
        # whose estimates are not refused; taking the first EP interval as
        # real would mark every row real and write errors against the pair
        model_file = tmp_path / "tied.json"
        model_file.write_text(json.dumps({"omega": [1, 1, 1], "a": [1, 1, 1], "d": [0, 1, 2]}))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", f"@{model_file}", "--steps", "1001", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        real = [row[10] == "true" for row in rows]
        assert real[:3] == [True] * 3 and real[3:].count(True) == 1000 and len(real) == 3003
        for row, is_real in zip(rows, real):
            assert row[-1] != "ok" or all(np.isnan(float(cell)) != is_real for cell in row[7:10]), row
        assert sum(row[-1] == "ok" and not is_real for row, is_real in zip(rows, real)) > 1900

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
            assert columns["real_spectrum"].tolist() == list(rep.mode_real)
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

    @pytest.mark.parametrize("a", [1e60, 1e110, 1e200])
    def test_overflowing_estimates_name_the_refusal(self, tmp_path, capsys, a):
        # a = 1e60: W**2 overflows once eps > 0; a = 1e110 and 1e200: a1*a2*a3
        # is already inf, so W is.  At eps = 0 every model is uncoupled: W is
        # a signed zero, not inf * 0 = nan, and app0..app2 are w' exactly
        spec = {"omega": [1, 2, 3.5], "a": [a] * 3, "d": [0, 0, 0]}
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(spec))
        out = tmp_path / "overflow.csv"
        assert run(
            "sweep", "--model", f"@{model_file}", "--steps", "11", "--out", str(out)
        ) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 33
        for cells in rows:
            refused = float(cells[0]) > 0.0
            assert cells[11] == ("NonFiniteResult" if refused else "ok")
            assert all((cell == "nan") == refused for cell in cells[4:7])
            assert all(cell not in ("inf", "-inf") for cell in cells)
            if not refused:
                assert [float(cell) for cell in cells[4:7]] == [spec["omega"][int(cells[1]) - 1]] * 3
        # the JSON of the same table: a refused point's estimates are null
        table = [dict(zip(lines[0].split(","), cells)) for cells in rows]
        for row in table:
            for key in row.keys() - {"mode", "real_spectrum", "status"}:
                row[key] = float(row[key])
            row["mode"], row["real_spectrum"] = int(row["mode"]), row["real_spectrum"] == "true"
        out_json = tmp_path / "overflow.json"
        assert run(
            "sweep", "--model", f"@{model_file}", "--steps", "11", "--format", "json", "--out", str(out_json)
        ) == 0
        model = ThreeModeModel.from_json_dict(spec).at_epsilon(1.0)
        assert out_json.read_text() == rows_to_json(model, table)
        for row in json.loads(out_json.read_text())["rows"]:
            if row["epsilon"] > 0.0:
                assert row["status"] == "NonFiniteResult"
                assert all(row[key] is None for key in ("app0", "app1", "app2", "err0", "err1", "err2"))

    def test_unallocatable_steps_is_usage_error(self, tmp_path, capsys):
        # the 7 PiB request for the epsilon grid fails at once
        out = tmp_path / "x.csv"
        assert run("sweep", "--model", "s", "--steps", "1000000000000000", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    def test_late_allocation_failure_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the epsilon grid fits but the spectral grid's (N, 3, 3) arrays do not
        message = "Unable to allocate 7.45 GiB for an array with shape (111111111, 3, 3) and data type float64"

        def unallocatable(model, eps_values):
            raise MemoryError(message)

        monkeypatch.setattr(eigenfreq, "spectral_grid", unallocatable)
        out = tmp_path / "x.csv"
        assert run("sweep", "--model", "s", "--steps", "3", "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run(
            "sweep", "--model", "s", "--eps-start", "0.9", "--eps-end", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ) == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--steps", "1", "error: steps must be >= 2\n"),
        ("--levels", "app0,app3", "error: unknown level 'app3'\n"),
    ])
    def test_bad_option_is_usage_error(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "x.csv"
        assert run("sweep", "--model", "s", option, value, "--out", str(out)) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


DEGENERATE_MODEL = {"omega": [1, 2, 3.5], "a": [0.1, 0.2, 0.3], "d": [1, 0, 0]}
# degenerate at eps = 0.5 only: grid point 500 of 1001 is refused
MIDWAY_DEGENERATE_MODEL = {"omega": [1, 2, 3.5], "a": [0.1, 0.2, 0.3], "d": [2, 0, 0]}


def _one_join_text(model, columns, fmt):
    """The sweep file as one "\\n".join (CSV) or one json.dumps (JSON) over
    list columns, as the whole table was formatted before CSV blocks."""
    lists = {k: column.tolist() for k, column in columns.items()}
    if fmt == "csv":
        real = ["true" if r else "false" for r in lists["real_spectrum"]]
        rows = zip(*dict(lists, real_spectrum=real).values())
        return "\n".join([CSV_HEADER] + [cli._CSV_ROW % row for row in rows]) + "\n"
    nulled = {
        k: [None if isinstance(v, float) and np.isnan(v) else v for v in column]
        for k, column in lists.items()
    }
    clean = [dict(zip(nulled, row)) for row in zip(*nulled.values())]
    return json.dumps(
        {"model": model.to_json_dict(), "rows": clean}, sort_keys=True, indent=2, allow_nan=False
    ) + "\n"


class TestSweepBlocks:
    """The CSV and the JSON are written one block of cli._CSV_BLOCK_ROWS rows
    at a time, with the bytes of one join (one json.dumps) over the whole table."""

    POINTS = cli._CSV_BLOCK_ROWS // 3  # grid points per block

    def test_a_block_holds_whole_grid_points(self):
        assert 3 * self.POINTS == cli._CSV_BLOCK_ROWS

    def test_columns_are_arrays(self):
        columns = sweep_rows(registry("l"), np.linspace(0.0, 1.0, 7), ("app0", "app2"))
        assert all(isinstance(c, np.ndarray) and c.shape == (21,) for c in columns.values())
        assert columns["mode"].tolist() == [1, 2, 3] * 7
        assert columns["real_spectrum"].dtype == bool and columns["status"].dtype == object
        assert set(columns["status"].tolist()) == {"ok"} and np.isnan(columns["app1"]).all()

    @pytest.mark.parametrize("mid, points", [
        ("s", 101),  # ends inside the first block
        ("m", POINTS),  # fills exactly one block
        ("l", POINTS + 1),  # one grid point into the second block
        ("s", 2 * POINTS),  # fills exactly two blocks
        ("m", 3 * POINTS + 17),  # spans four blocks, ends inside the last
        ("midway", 1001),  # the refused rows lie inside the second block
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_one_join(self, tmp_path, mid, points, fmt):
        if mid == "midway":
            spec = tmp_path / "model.json"
            spec.write_text(json.dumps(MIDWAY_DEGENERATE_MODEL))
            model = ThreeModeModel.from_json_dict(MIDWAY_DEGENERATE_MODEL).at_epsilon(1.0)
            mid = f"@{spec}"
        else:
            model = registry(mid)
        columns = sweep_rows(model, np.linspace(0.0, 1.0, points), eigenfreq.LEVELS)
        if mid.startswith("@"):
            refused = np.flatnonzero(columns["status"] != "ok").tolist()
            assert refused == [1500, 1501, 1502]
            assert all(0 < r % cli._CSV_BLOCK_ROWS < cli._CSV_BLOCK_ROWS - 1 for r in refused)
        out = tmp_path / f"sweep.{fmt}"
        assert run("sweep", "--model", mid, "--steps", str(points), "--format", fmt, "--out", str(out)) == 0
        assert out.read_bytes() == _one_join_text(model, columns, fmt).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_write_is_longer_than_a_block(self, tmp_path, monkeypatch, fmt):
        writes = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        out = tmp_path / f"sweep.{fmt}"
        assert run("sweep", "--model", "l", "--steps", "20001", "--format", fmt, "--out", str(out)) == 0
        rows, block = 3 * 20001, cli._CSV_BLOCK_ROWS
        counts = [block] * (rows // block) + [rows % block]
        assert "".join(writes).encode() == out.read_bytes()
        if fmt == "csv":
            assert writes[0] == CSV_HEADER + "\n"
            assert [w.count("\n") for w in writes[1:]] == counts
            assert all(w.endswith("\n") for w in writes)
            longest = max(map(len, out.read_text().splitlines(True)))
        else:
            # head, one write per block of rows, tail
            assert writes[0].endswith('\n  "rows": [\n') and '"mode"' not in writes[0]
            assert [w.count('"mode": ') for w in writes[1:-1]] == counts
            assert writes[-1] == "\n  ]\n}\n"
            longest = max(map(len, "".join(writes[1:-1]).split("},\n"))) + len("},\n")
            assert len(json.loads(out.read_text())["rows"]) == rows
        assert max(map(len, writes)) <= block * longest

    def test_infinite_float_refuses_the_json_before_out_opens(self, tmp_path, capsys, monkeypatch):
        def with_inf(model, eps_values, levels):
            columns = sweep_rows(model, eps_values, levels)
            columns["err0"][4] = np.inf
            return columns

        monkeypatch.setattr(cli, "sweep_rows", with_inf)
        out = tmp_path / "kept.json"
        out.write_bytes(b"earlier,output\r\n1,2\n")
        assert run("sweep", "--model", "s", "--steps", "3", "--format", "json", "--out", str(out)) == 2
        # the prefix only: json's own message differs across Python versions
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_bytes() == b"earlier,output\r\n1,2\n"
        # the CSV of the same columns prints it
        assert run("sweep", "--model", "s", "--steps", "3", "--out", str(out)) == 0
        assert out.read_text().splitlines()[1 + 4].split(",")[CSV_HEADER.split(",").index("err0")] == "inf"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("refusal", [
        ("--eps-start", "0.9", "--eps-end", "0.1"),
        ("--steps", "1"),
        ("--levels", "app0,app3"),
    ])
    def test_refusal_leaves_out_untouched(self, tmp_path, capsys, fmt, refusal):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"earlier,output\r\n1,2\n")
        assert run("sweep", "--model", "s", *refusal, "--format", fmt, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"earlier,output\r\n1,2\n"


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

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_1001_points_match_bench_golden(self, mid, tmp_path):
        # the bench's sweep operation: default range and format, 1001 points
        expected = bench_golden("sweep")[canonical_id(mid)]
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", mid, "--steps", "1001", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


    @pytest.mark.parametrize("steps", [101, 1001, 10001])
    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_lapack_order_does_not_matter(self, tmp_path, monkeypatch, mid, steps):
        # the labels come from the exceptional points, so eigenvalues
        # returned in the reverse order give the same bytes
        csv = []
        for flip in (False, True):
            if flip:
                eigvals = np.linalg.eigvals
                monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a)[..., ::-1])
            out = tmp_path / f"sweep{flip}.csv"
            assert run("sweep", "--model", mid, "--steps", str(steps), "--out", str(out)) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]


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

    @pytest.mark.parametrize("model", ["small", "moderate", "large"])
    def test_full_stdout_matches_bench_golden(self, model, monkeypatch, capsys):
        expected = bench_golden("verify")[model]
        monkeypatch.delenv("OSC_PERT_TOL", raising=False)
        assert run("verify", "--model", model, "--depth", "full") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

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
        # main's cached parser holds the real command: hand it a fresh one
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
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
        '{"n": 2.7, "edges": []}',
        '{"n": 2, "edges": [[0, 1.9, 1.0]]}',
        '{"n": 3, "edges": [[0, 1, 1e308], [0, 2, 1e308]]}',
        '{"n": 2, "edges": [[0, 1, 1e999]]}',
        '{"n": 0, "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": "3", "edges": []}',
        '{"n": 2, "edges": [[0, 1, "2.5"]]}',
        '{"n": 2, "edges": [[false, true, true]]}',
        '{"n": 2, "edges": [[0, 1, 1.0], [1, 0]]}',
    ])
    def test_malformed_graph_is_usage_error(self, tmp_path, capsys, text):
        gpath = tmp_path / "g.json"
        gpath.write_text(text)
        assert run("decompose", "--graph", str(gpath)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"0": [1, -1]}',
        '[{"0": 1}, [0, 0]]',
        '[[1, -1], [0]]',
        '[["1", "-1"], ["0", "0"]]',
        '[[true, false], [false, false]]',
    ])
    def test_malformed_li_is_usage_error(self, tmp_path, capsys, text):
        gpath, lpath = tmp_path / "g.json", tmp_path / "li.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]]}))
        lpath.write_text(text)
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("li, graph_text, key", [
        (None, '{"n": 3, "edges": [[0, 1, 2], [1, 2, true], [2, 0, 1]]}', 'graph JSON "edges"'),
        (None, '{"n": 3, "edges": [[0, 1, 2], [false, 2, 3], [2, 0, 1]]}', 'graph JSON "edges"'),
        ('[[1, -1, 0], [0, true, -1], [-1, 0, 1]]', json.dumps(FIG1_GRAPH), "LI JSON"),
        ('[[1, -1, 0], [0, 1, -1], [-1, false, 1]]', json.dumps(FIG1_GRAPH), "LI JSON"),
    ])
    def test_bool_among_the_numbers_is_usage_error(self, tmp_path, capsys, li, graph_text, key):
        # numpy alone reads true as 1 and false as 0: a true weight used to be
        # written out, a true LI entry refused as a row-sum error (exit 1)
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(graph_text)
        args = ["decompose", "--graph", str(gpath), "--out", str(out)]
        if li is not None:
            lpath.write_text(li)
            args += ["--li", str(lpath)]
        assert run(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be a real number, got ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_bool_outside_the_numbers_is_not_refused(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({**FIG1_GRAPH, "directed": True, "note": "true"}))
        assert run("decompose", "--graph", str(gpath)) == 0
        assert json.loads(capsys.readouterr().out)["L"] == [[3, -2, -1], [-3, 6, -3], [-4, -2, 6]]

    def test_li_of_the_wrong_shape_is_refused(self, tmp_path, capsys):
        gpath, lpath = tmp_path / "g.json", tmp_path / "li.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]]}))
        lpath.write_text(json.dumps(FIG1_LI))
        out = tmp_path / "dec.json"
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: LI shape (3, 3) does not match L shape (2, 2)\n")
        assert not out.exists()

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

    def test_underflowing_certificate_is_refused(self, tmp_path):
        # the mirror of the overflowing chain: each link divides the balance
        # vector by 1e10; a search that mistakes an underflowed 0.0 for an
        # unvisited node never ends, so the run gets its own process and a
        # time limit
        n = 40
        edges = [[i, i + 1, 1.0] for i in range(n - 1)] + [[i + 1, i, 1e10] for i in range(n - 1)]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": n, "edges": edges}))
        lpath.write_text(json.dumps([[0.0] * n] * n))
        proc = _run_apart(
            "-m", "oscpert.cli", "decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: InvalidDecomposition: certificate vector has non-finite")
        assert not out.exists()

    def test_small_l0_of_a_valid_split_is_written(self, tmp_path):
        # L0 is 1e-9 of L: its row sums are judged once, at L's scale (exit 2 before)
        edges = [[0, 1, 1.000000001], [1, 0, 1e-9], [1, 2, 1], [2, 0, 1]]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": 3, "edges": edges}))
        lpath.write_text(json.dumps(FIG1_LI))
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)) == 0
        assert json.loads(out.read_text())["certificate"][1] == pytest.approx(1.0, abs=1e-6)

    def test_overflowing_balance_products_are_refused(self, tmp_path, capsys):
        # the products of a balance vector at 1e300 and weights at 1e10 were
        # inf on both sides, and inf - inf passed the balance check (exit 0)
        edges = [e for i in range(30) for e in ([i, i + 1, 1e10], [i + 1, i, 1.0])]
        edges += [[30, 31, 1e10], [31, 30, 1e10], [31, 32, 1e10], [32, 31, 1e10], [30, 32, 1e10], [32, 30, 1.1e10]]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": 33, "edges": edges}))
        lpath.write_text(json.dumps([[0.0] * 33] * 33))
        assert run("decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)) == 1
        assert "InvalidDecomposition: certificate vector has non-finite entries or balance products" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_balance_and_symmetry_share_one_tolerance(self, tmp_path, capsys):
        # the 3-cycle's weight products differ by 5e-10: out of balance for
        # the search as for validate_decomposition's symmetry check
        edges = [[0, 1, 1], [1, 0, 1], [1, 2, 1], [2, 1, 1], [0, 2, 1], [2, 0, 1 + 5e-10]]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": 3, "edges": edges}))
        lpath.write_text(json.dumps([[0.0] * 3] * 3))
        assert run(
            "decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)
        ) == 1
        assert "InvalidDecomposition: remainder L - LI is not symmetrizable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", [1.0, 1e-12])
    def test_unbalanced_cycle_is_refused_below_unit_scale(self, tmp_path, capsys, c):
        # the 3-cycle's two directions are 10% apart at any weight scale
        edges = [[0, 1, c], [1, 0, c], [1, 2, c], [2, 1, c], [0, 2, c], [2, 0, 1.1 * c]]
        gpath, lpath, out = tmp_path / "g.json", tmp_path / "li.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps({"n": 3, "edges": edges}))
        lpath.write_text(json.dumps([[0.0] * 3] * 3))
        assert run(
            "decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)
        ) == 1
        assert "InvalidDecomposition: remainder L - LI is not symmetrizable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("explicit", [False, True])
    def test_trusts_what_decompose_built(self, tmp_path, capsys, monkeypatch, explicit):
        def refuse(dec):
            raise AssertionError("decompose results are not re-validated")

        monkeypatch.setattr(graph, "validate_decomposition", refuse)
        gpath, lpath = tmp_path / "g.json", tmp_path / "li.json"
        gpath.write_text(json.dumps(FIG1_GRAPH))
        lpath.write_text(json.dumps(FIG1_LI))
        args = ("--li", str(lpath)) if explicit else ()
        assert run("decompose", "--graph", str(gpath), *args) == 0
        assert json.loads(capsys.readouterr().out)["L"]

    @pytest.mark.parametrize("key", ["L", "scaling"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_refusal_writes_nothing(self, tmp_path, capsys, monkeypatch, key, to_file):
        # "scaling" is the last array written: every part is built, and so
        # every array checked, before the output is opened
        real = graph.decompose

        def non_finite(lap, li=None):
            dec = real(lap, li=li)
            getattr(dec, key)[-1] = np.inf
            return dec

        monkeypatch.setattr(graph, "decompose", non_finite)
        gpath, out = tmp_path / "g.json", tmp_path / "dec.json"
        gpath.write_text(json.dumps(FIG1_GRAPH))
        args = ("--out", str(out)) if to_file else ()
        assert run("decompose", "--graph", str(gpath), *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"not JSON compliant in {key}" in captured.err
        assert not out.exists()


def _random_graph(seed, n, density):
    rng = np.random.default_rng(seed)
    edges = [
        [i, j, float(rng.uniform(0.1, 3.0))]
        for i in range(n) for j in range(n) if i != j and rng.random() < density
    ]
    return {"n": n, "edges": edges}


def _bench_graph_dict(seed):
    """The decompose benchmark's shape: n=200, a balanced two-way core plus
    one-way links; returns the graph file's dict and the LI rows."""
    g, li = _bench_style_graph(seed)
    return {"n": g.n, "edges": [[int(s), int(d), w] for s, d, w in g.edges.tolist()]}, li.tolist()


BENCH_200 = _bench_graph_dict(5)
SINK_GRAPH = {"n": 3, "edges": [[0, 1, 2.0], [1, 0, 1.0], [0, 2, 1.5]]}


class TestDecomposeBytes:
    """decompose writes exactly what json.dumps writes for the nested lists."""

    CASES = {
        "fig1": (FIG1_GRAPH, None),
        "fig1-li": (FIG1_GRAPH, FIG1_LI),
        "single-node": ({"n": 1, "edges": []}, None),
        "negative-zero-li": (FIG1_GRAPH, [[1, -1, -0.0], [-0.0, 1, -1], [-1, -0.0, 1]]),
        "random-30": (_random_graph(30, 30, 0.3), None),
        # node 2 has no out-edges: its diagonal is 0.0 in L and L0, not -0.0
        "sink-node": (SINK_GRAPH, None),
        "sink-node-li": (SINK_GRAPH, [[1.5, 0, -1.5], [0, 0, 0], [0, 0, 0]]),
        "bench-200": (BENCH_200[0], None),
        "bench-200-li": BENCH_200,
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
        if name in ("negative-zero-li", "sink-node", "sink-node-li"):
            assert ("-0.0" in want) == (name == "negative-zero-li")

    def test_stdout(self, tmp_path, capsys):
        argv, want = self.write_inputs(tmp_path, "fig1-li")
        assert run(*argv) == 0
        assert capsys.readouterr().out == want


def _emitted(emit, arrays):
    """emit's JSON text, or its refusal."""
    try:
        return emit(arrays)
    except ValueError as exc:
        return "refused", str(exc)


def _joined(arrays):
    return "".join(cli._decomposition_parts(arrays))


def _with_zeros(rng, shape, zero_frac):
    """Entries from a small pool with repeats, each zero with probability
    zero_frac, and about one zero in eight written as -0.0."""
    values = rng.choice([0.5, -1.25, 3.0, 1e-300, 2.5e-310, 1e16, 0.1], shape) * rng.integers(1, 4, shape)
    zeros = rng.random(shape) < zero_frac
    return np.where(zeros, np.where(rng.random(shape) < 0.125, -0.0, 0.0), values)


def _run_case(rng, kind):
    """One dict of arrays that stresses how runs of zeros meet the breakpoints."""
    keys = ["L", "L0", "LI", "certificate", "scaling"]
    if kind == "zero-rows":
        a = _with_zeros(rng, (int(rng.integers(2, 7)), int(rng.integers(1, 7))), 0.5)
        a[rng.random(a.shape[0]) < 0.5] = 0.0
        return {"L": a, "scaling": _with_zeros(rng, (int(rng.integers(1, 5)),), 0.5)}
    if kind == "zero-arrays":
        return {str(k): np.zeros(tuple(int(v) for v in rng.integers(1, 6, int(rng.integers(1, 3)))))
                for k in rng.choice(keys, int(rng.integers(1, 6)), replace=False)}
    if kind == "edge-columns":
        a = np.zeros((int(rng.integers(1, 6)), int(rng.integers(2, 8))))
        a[:, 0] = _with_zeros(rng, a.shape[0], 0.3)
        a[:, -1] = _with_zeros(rng, a.shape[0], 0.3)
        return {"L0": a, "LI": a[::-1, ::-1].copy(), "certificate": a[0].copy()}
    if kind == "negative-zero-ends":
        a = _with_zeros(rng, (int(rng.integers(1, 6)), int(rng.integers(1, 6))), 0.6)
        a[:, -1] = -0.0
        b = _with_zeros(rng, (int(rng.integers(1, 6)),), 0.6)
        b[-1] = -0.0
        return {"L": a, "scaling": b}
    if kind == "single-entry":
        return {"L": _with_zeros(rng, (1, 1), 0.5), "certificate": _with_zeros(rng, (1,), 0.5)}
    if kind == "non-square":
        return {str(k): _with_zeros(rng, (int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng.random())
                for k in rng.choice(keys, int(rng.integers(1, 4)), replace=False)}
    # bench-sized: n=200 matrices that are 89% zeros, and two vectors
    n = 200
    return {"L": _with_zeros(rng, (n, n), 0.89), "L0": _with_zeros(rng, (n, n), 0.89),
            "LI": _with_zeros(rng, (n, n), 0.89), "certificate": _with_zeros(rng, (n,), 0.5),
            "scaling": _with_zeros(rng, (n,), 0.0)}


class TestDecompositionJson:
    """The breakpoint emitter writes the bytes of one float.__repr__ per entry."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1e16, 0.1, -0.1, 1.0, 3.0]

    def test_same_bytes_as_repr_emitter(self):
        rng = np.random.default_rng(31)
        refused = 0
        for _ in range(2000):
            # a few values per case, so entries repeat within and across keys
            pool = self.SPECIAL + (rng.normal(size=4) * 10.0 ** rng.integers(-8, 9, 4)).tolist()
            arrays = {}
            for key in rng.choice(["L", "L0", "LI", "certificate", "scaling"], int(rng.integers(1, 6)), replace=False):
                shape = tuple(int(v) for v in rng.integers(1, 5, size=int(rng.integers(1, 3))))
                arrays[str(key)] = rng.choice(pool, shape)
            if rng.random() < 0.1:
                key = str(rng.choice(sorted(arrays)))
                arrays[key].flat[int(rng.integers(arrays[key].size))] = rng.choice([np.nan, np.inf, -np.inf])
            want = _emitted(repr_json, arrays)
            assert _emitted(_joined, arrays) == want
            refused += isinstance(want, tuple)
        assert 100 < refused < 400

    def test_bench_size_peak_memory(self):
        # the word table and one array's words at a time: no larger than
        # formatting every entry, whose peak is ~3x the 1.5 MB payload
        g, li = _bench_style_graph(5)
        dec = graph.decompose(graph.laplacian(g))
        arrays = {"L": dec.L, "L0": dec.L0, "LI": dec.LI, "certificate": dec.certificate, "scaling": dec.scaling}
        peaks = []
        for emit in (repr_json, _joined):
            emit(arrays)
            tracemalloc.start()
            try:
                emit(arrays)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("kind", [
        "zero-rows", "zero-arrays", "edge-columns", "negative-zero-ends",
        "single-entry", "non-square", "bench-sized",
    ])
    def test_zero_runs_and_breakpoints(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(5 if kind == "bench-sized" else 300):
            arrays = _run_case(rng, kind)
            got = _joined(arrays)
            assert got == repr_json(arrays)
            assert got == json.dumps({k: a.tolist() for k, a in arrays.items()}, sort_keys=True, indent=2) + "\n"


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

    @pytest.mark.parametrize("verb, extra", [("xyz", []), ("term", ["--order", "2", "--t", "0.7"])])
    def test_epsilon_flag_then_model_file_then_one(self, tmp_path, capsys, verb, extra):
        spec = {"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 1.619, 0.025]}
        model_file = tmp_path / "model.json"
        for in_file, flag, want in [(0.8, ["--epsilon", "0.3"], 0.3), (0.8, ["--epsilon", "0"], 0.0),
                                    (0.8, [], 0.8), (None, [], 1.0)]:
            model_file.write_text(json.dumps(spec if in_file is None else {**spec, "epsilon": in_file}))
            assert run(verb, "--model", f"@{model_file}", *extra, *flag) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["epsilon"] == want
            if verb == "xyz":
                model = ThreeModeModel.from_json_dict({**spec, "epsilon": want})
                assert payload["X"] == threemode.xyz(model).X

    @pytest.mark.parametrize("text", [
        '{"omega": [9, 6, 0], "a": [1, 2, 1]}',
        '[[9, 6, 0], [1, 2, 1], [1.5, 1.6, 0.025]]',
        '{"omega": 9, "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, null], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025], "epsilon": null}',
        '{"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025], "epsilon": true}',
        '{"omega": [9, 6, 0], "a": [1, 2], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, 0], "a": [1, 2, NaN], "d": [1.5, 1.6, 0.025]}',
        '{"omega": ["9", true, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, 0], "a": [1, true, 1], "d": [1.5, 1.6, 0.025]}',
        '{"omega": [9, 6, 0], "a": [1, 2, 1], "d": [1.5, "1.6", 0.025]}',
    ])
    def test_malformed_model_is_usage_error(self, tmp_path, capsys, text):
        model_file = tmp_path / "model.json"
        model_file.write_text(text)
        assert run("xyz", "--model", f"@{model_file}") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb, extra", [
        ("xyz", ()),
        ("sweep", ("--steps", "3", "--out", "{out}")),
        ("term", ("--order", "1", "--t", "0.5")),
    ])
    def test_non_real_model_entry_is_refused(self, tmp_path, capsys, verb, extra):
        # a string or a bool entry used to be read as float("9") or float(True)
        model_file = tmp_path / "model.json"
        model_file.write_text('{"omega": ["9", true, 0], "a": [1, 2, 1], "d": [1.5, 1.6, 0.025]}')
        out = tmp_path / "out.csv"
        assert run(verb, "--model", f"@{model_file}", *(x.format(out=out) for x in extra)) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: omega must be a sequence of real numbers")
        assert captured.err.count("\n") == 1

    def test_overflowing_coupling_ratios_are_refused(self, tmp_path, capsys):
        # a1*a2*a3 = 1e600: the ratios are infinite, which JSON cannot hold
        model_file = tmp_path / "big.json"
        model_file.write_text(json.dumps({"omega": [1, 2, 3.5], "a": [1e200] * 3, "d": [0, 0, 0]}))
        assert run("xyz", "--model", f"@{model_file}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonFiniteResult: coupling ratios")
        assert captured.err.count("\n") == 1

    def test_overflowing_coupling_is_uncoupled_at_eps_zero(self, tmp_path, capsys):
        # a1*a2*a3 = 1e600, but at eps = 0 the ratios are signed zeros
        model_file = tmp_path / "big0.json"
        model_file.write_text(json.dumps({"omega": [1, 2, 3.5], "a": [1e200] * 3, "d": [0, 0, 0]}))
        assert run("xyz", "--model", f"@{model_file}", "--epsilon", "0") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert [payload[key] for key in "XYZ"] == [0.0, 0.0, 0.0]
        assert payload["abs"] == [0.0, 0.0, 0.0]

    def test_an_overflowing_prefactor_leaves_the_ratios(self, tmp_path, capsys):
        # a3*eps / (w3' - w1') = 2e308 overflows; X, Y and Z do not
        model_file = tmp_path / "tiny.json"
        model_file.write_text(json.dumps({"omega": [1, 0, 1.5], "a": [1e-200, 1e-200, 1e308], "d": [0, 0, 0]}))
        assert run("xyz", "--model", f"@{model_file}", "--epsilon", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [str(payload[key]) for key in "XYZ"] == ["0.0", "-0.0", "-0.0"]
        assert payload["abs"] == [0.0, 0.0, 0.0]

    def test_term_non_finite_closed_form_is_refused(self, tmp_path, capsys):
        # the order-1 closed form overflows (a3 = 1e308) and is refused, not
        # printed as NaN that JSON cannot hold; no RuntimeWarning is emitted
        model_file = tmp_path / "tiny.json"
        model_file.write_text(json.dumps({"omega": [1, 0, 1.5], "a": [1e-200, 1e-200, 1e308], "d": [0, 0, 0]}))
        assert run("term", "--model", f"@{model_file}", "--order", "1", "--t", "7.3", "--epsilon", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonFiniteResult: psi_1 term of order 1 at t=7.3 is not finite")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_term_non_finite_time_is_usage_error(self, t, capsys):
        assert run("term", "--model", "s", "--order", "1", f"--t={t}") == 2
        assert capsys.readouterr().out == ""

    def test_term_negative_steps_is_usage_error(self, capsys):
        assert run("term", "--model", "s", "--order", "0", "--t", "0.5", "--steps", "-3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: steps must be >= 0\n"

    def test_term_unallocatable_steps_is_usage_error(self, capsys):
        # the 480 TB request for the quadrature scratch fails at once
        term = ("term", "--model", "s", "--order", "2", "--t", "0.5")
        assert run(*term) == 0
        before = capsys.readouterr().out
        assert run(*term, "--steps", "1000000000000") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1
        # the failed grow leaves the process's scratch usable
        assert run(*term) == 0
        assert capsys.readouterr().out == before

    def test_term_non_finite_coefficient_is_refused(self, capsys):
        # psi_2 overflows at t=1e200; RuntimeWarnings fail tier-1, so none is emitted
        assert run("term", "--model", "s", "--order", "2", "--t", "1e200", "--steps", "20") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: NonFiniteResult: order 2 is not finite at t=1e+200\n"

    @pytest.mark.parametrize("psi0", ["1,0", "1,0,0,0", "1,x,0"])
    def test_term_wrong_length_psi0_is_usage_error(self, psi0, capsys):
        assert run("term", "--model", "s", "--order", "1", "--t", "0.5", "--psi0", psi0) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = "error: cannot parse psi0 '1,x,0'" if "x" in psi0 else "error: psi0 needs 3 components"
        assert captured.err.startswith(want)


class TestBadInputExitsTwo:
    """Bad input, whichever layer reads it, exits 2 with one error line and
    nothing on stdout or on disk; only a refused result exits 1."""

    @pytest.mark.parametrize("argv, err", [
        (("verify", "--model", "nosuch"),
         "error: unknown benchmark 'nosuch'; expected one of ('moderate', 'small', 'large') or aliases m/s/l\n"),
        (("decompose", "--graph", "g.json", "--li", "li.json", "--out", "out.json"),
         "error: LI must be a non-empty square matrix, got shape (1, 3)\n"),
        (("term", "--model", "s", "--order", "1", "--t", "0.5", "--psi0", "1,2"),
         "error: psi0 needs 3 components, got 2 in '1,2'\n"),
        (("term", "--model", "s", "--order", "3", "--t", "0.5", "--steps", "20"),
         "error: steps=20 too coarse for order 3; need >= 30\n"),
    ], ids=["verify model", "decompose li", "term psi0", "term steps"])
    def test_one_error_line_and_no_output(self, tmp_path, monkeypatch, capsys, argv, err):
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text(json.dumps(FIG1_GRAPH))
        Path("li.json").write_text("[[1, -1, 0]]")
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "li.json"]


class TestOneParserPerProcess:
    """main parses every call with one parser, built by its first call."""

    def test_repeated_calls_give_the_same_results(self, tmp_path, capsys):
        gpath, lpath, big = tmp_path / "graph.json", tmp_path / "li.json", tmp_path / "big.json"
        gpath.write_text(json.dumps(FIG1_GRAPH))
        lpath.write_text(json.dumps(FIG1_LI))
        big.write_text(json.dumps({"omega": [1, 2, 3.5], "a": [1e200] * 3, "d": [0, 0, 0]}))
        out = tmp_path / "out"
        calls = [
            ["verify", "--model", "s", "--depth", "full"],
            ["sweep", "--model", "l", "--steps", "11", "--out", str(out)],
            ["decompose", "--graph", str(gpath), "--li", str(lpath), "--out", str(out)],
            ["decompose", "--graph", str(gpath), "--out", str(out)],
            ["xyz", "--model", "m", "--epsilon", "0.5"],
            ["term", "--model", "s", "--order", "2", "--t", "0.7"],
        ]

        def run_all():
            seen = []
            for argv in calls:
                code = main(argv)
                seen.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
                out.unlink(missing_ok=True)
            return seen

        first = run_all()
        assert [code for code, _, _ in first] == [0] * len(calls)
        with pytest.raises(SystemExit) as usage:
            main(["sweep", "--model", "s"])  # --out is required
        assert usage.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert main(["xyz", "--model", f"@{big}"]) == 1
        assert capsys.readouterr().err.startswith("error: NonFiniteResult")
        assert run_all() == first

    def test_main_builds_one_parser(self, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["xyz", "--model", "s"]) == 0
            with pytest.raises(SystemExit):
                main(["xyz"])
            assert main(["xyz", "--model", "l"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        # a caller that changes its parser leaves main's alone
        first = cli.build_parser()
        first.add_argument("--required-elsewhere", required=True)
        assert cli.build_parser() is not first
        assert main(["xyz", "--model", "s"]) == 0
