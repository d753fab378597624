"""The outcome dump (tests/outcome_dump.py): its rows are deterministic, every
public callable has one, and its diff sorts two dumps' rows as it says."""
import io
import itertools
import json

import outcome_dump
from test_numbers import EXEMPT, _public_callables

MODULES = outcome_dump.load()


def _dump(rows) -> str:
    out = io.StringIO()
    outcome_dump.dump(rows, out)
    return out.getvalue()


def test_a_slice_is_deterministic_across_two_runs():
    rows = list(itertools.islice(outcome_dump.corpus(MODULES), 0, None, 41))
    rows += [row for row in outcome_dump.corpus(MODULES) if row[0] == "cli.main"]
    first = _dump(rows)
    assert first == _dump(rows)
    assert first.count("\n") == len(rows) > 500
    assert "\tvalue\t" in first and "\trefused\t" in first
    # a CLI row holds the exit code, stdout, the first stderr line and the files written
    (nosuch,) = [line.split("\t") for line in first.splitlines() if line.startswith("cli.main\tverify --model nosuch\t")]
    code, stdout, err, written = json.loads(nosuch[3])
    assert (nosuch[2], code, stdout, written) == ("value", 2, repr(""), {})
    assert err.startswith(repr("error: unknown benchmark 'nosuch'")[:-1])


def test_every_public_callable_has_a_row():
    ids = [(func, arg_id) for func, arg_id, _ in outcome_dump.corpus(MODULES)]
    assert len(set(ids)) == len(ids)  # a diff matches rows by (callable, argument id)
    funcs = {func for func, _ in ids}
    # a result record is covered by the rows of the callable that builds it
    records = {name: why.rpartition("built by ")[2] for name, why in EXEMPT.items() if why.startswith("a result record")}
    assert _public_callables() - records.keys() <= funcs
    assert set(records.values()) <= funcs


def test_outcomes_keep_signed_zeros_and_refusals():
    assert outcome_dump.outcome(lambda: complex(-0.0, 0.0)) == ["value", '{"re":"-0x0.0p+0","im":"0x0.0p+0"}']
    assert outcome_dump.outcome(lambda: MODULES["linalg"].as_real(True, "x")) == [
        "refused", json.dumps("ValueError: x must be a real number, got True")]


def test_diff_sorts_rows(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_text(
        'f\tsame\tvalue\t"0x1.0p+0"\n'
        'f\tmoved\tvalue\t["0x1.0p+0","0x1.0p+1"]\n'
        'f\tretyped\trefused\t"NonConvergence: no"\n'
        'g\tgone\tvalue\t"0x1.0p+0"\n'
    )
    new.write_text(
        'f\tsame\tvalue\t"0x1.0p+0"\n'
        'f\tmoved\tvalue\t["0x1.0p+0","0x1.0000000000001p+1"]\n'
        'f\tretyped\trefused\t"NonFiniteResult: no"\n'
    )
    out = io.StringIO()
    assert outcome_dump.diff(str(old), str(new), 5, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[1].split() == ["f", "1", "1", "1", "0", "0", "2.22e-16"]
    assert lines[2] == "    moved: 2.22e-16"
    assert lines[5].split() == ["g", "0", "0", "0", "1", "0", "-"]
    same = io.StringIO()
    assert outcome_dump.diff(str(old), str(old), 5, same) == 0
