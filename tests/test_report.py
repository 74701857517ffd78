import json

import pytest

from cosetlfun.report import dumps_jsonl_row, fmt_float, rel_err, render_rows


class TestFmtFloat:
    def test_roundtrip_exact(self):
        for x in (0.1, 1 / 3, 2**-52, 1e300, -7.25, 0.0):
            assert float(fmt_float(x)) == x

    def test_integers_stay_short(self):
        assert fmt_float(2.0) == "2"


class TestRelErr:
    def test_equal_values(self):
        assert rel_err(1 + 1j, 1 + 1j) == 0.0

    def test_relative_error_scaling(self):
        assert rel_err(100.0 + 0j, 101.0 + 0j) == pytest.approx(1 / 101)

    def test_scale_is_larger_magnitude(self):
        # the error is taken against max(|brute|, |closed|), either side
        assert rel_err(2.0 + 0j, 2.5 + 0j) == pytest.approx(0.2)
        assert rel_err(2.5 + 0j, 2.0 + 0j) == pytest.approx(0.2)

    def test_zero_scale(self):
        assert rel_err(0j, 0j) == 0.0


class TestSerialization:
    def test_jsonl_is_valid_json(self):
        d = {"name": "a b", "x": 0.1, "n": 3, "flag": True, "pair": [1.5, -2.0]}
        line = dumps_jsonl_row(d)
        back = json.loads(line)
        assert back["name"] == "a b"
        assert back["x"] == 0.1
        assert back["pair"] == [1.5, -2.0]

    def test_jsonl_escapes_quotes(self):
        line = dumps_jsonl_row({"s": 'say "hi"'})
        assert json.loads(line)["s"] == 'say "hi"'

    def test_render_csv_header_and_floats(self):
        rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": 0.25}]
        text = render_rows(rows, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.10000000000000001"
        assert "\r" not in text

    def test_render_jsonl_line_per_row(self):
        rows = [{"a": 1}, {"a": 2}]
        text = render_rows(rows, "jsonl")
        assert text.count("\n") == 2
        assert [json.loads(x)["a"] for x in text.strip().splitlines()] == [1, 2]

    def test_complex_pairs_flatten_in_csv(self):
        rows = [{"z": [1.0, -2.0], "n": 1}]
        text = render_rows(rows, "csv")
        header = text.splitlines()[0]
        assert header == "z_re,z_im,n"
