"""Report bytes pinned across commits.

Criterion 11 checks that one commit repeats its own report; this checks the
report against the CSV stdout recorded in tests/golden/ by an earlier commit,
one small invocation per subcommand, so a change that moves any report byte
has to rewrite the file and say so.  To record a file again:

    PYTHONPATH=src python -m cosetlfun.cli ARGS... > tests/golden/NAME.csv

The same invocations with --format jsonl must write JSON that json.loads
reads, with every float cell read back as a float.
"""

import json
import pathlib

import pytest

import cosetlfun.cli as cli_module
from cosetlfun.cli import SUBCOMMANDS, main
from cosetlfun.report import render_rows

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

INVOCATIONS = {
    "gauss-verify": ["--p", "5", "--k", "2", "3"],
    "coset-eps": ["--p", "5", "--k", "4", "5", "--m-samples", "2", "--seed", "1"],
    "ratio": ["--p", "5", "--k", "2", "--m-samples", "2", "--seed", "1"],
    "near-one": ["--p", "5", "--k", "4"],
    "moment": ["--p", "3", "--k", "4", "--j", "2"],
    "recipe": ["--p", "5", "--k", "4", "--j", "2"],
    "vdc": ["--trials", "5", "--seed", "1"],
    "shift-identity": ["--p", "5", "--k", "4", "--j", "3", "4", "--trials", "1", "--seed", "1"],
    "lemma9": ["--p", "3", "--k", "4", "--j", "1", "2", "--A", "4", "--B", "4"],
    "hybrid": ["--p", "3", "--k", "4", "--j", "1"],
}


def test_every_subcommand_has_a_golden_report():
    assert sorted(INVOCATIONS) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes_match_golden(name, capsys):
    code = main([name, *INVOCATIONS[name]])
    out = capsys.readouterr().out
    assert code == 0
    want = (GOLDEN / f"{name}.csv").read_bytes().decode("utf-8")
    if out != want:
        got_lines, want_lines = out.splitlines(), want.splitlines()
        for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
            if g != w:
                pytest.fail(f"{name}.csv line {i}:\n  golden: {w}\n  now:    {g}")
        pytest.fail(
            f"{name}.csv: {len(want_lines)} golden lines, {len(got_lines)} now"
        )


def _json_type_ok(cell, value) -> bool:
    if isinstance(cell, complex):
        return isinstance(value, list) and all(isinstance(v, float) for v in value)
    return isinstance(value, float) if isinstance(cell, float) else True


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_jsonl_report_parses(name, capsys, monkeypatch):
    tables = []
    monkeypatch.setattr(
        cli_module, "render_rows",
        lambda table, fmt: tables.append(table) or render_rows(table, fmt),
    )
    code = main([name, *INVOCATIONS[name], "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    # one table per rendered block, each with the keys a JSON line carries
    keys = tables[0][0]
    assert keys == cli_module.SPECS[name].keys
    assert all(table_keys == keys for table_keys, _ in tables)
    rows = [row for _, block in tables for row in block]
    lines = out.split("\n")
    assert lines.pop() == "" and len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        back = json.loads(line)
        assert list(back) == keys
        assert all(map(_json_type_ok, row, back.values())), line
