import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlfun.cli import RunResult
from cosetlfun.report import rel_err, render_rows
from oracles import render_rows_oracle, rows_as_dicts


def fmt_float(x: float) -> str:
    """x as render_rows writes a one-cell CSV row of it."""
    return render_rows((["x"], [(x,)]), "csv").splitlines()[1]


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
    def test_jsonl_floats_keep_type_and_sign(self):
        # as json.dumps writes them; CSV keeps 17 digits, so 2.0 is "2" there
        row = (2.0, -0.0, 1e16, complex(-0.0, 2.0))
        line = render_rows((["a", "b", "c", "z"], [row]), "jsonl")
        assert line == '{"a": 2.0, "b": -0.0, "c": 1e+16, "z": [-0.0, 2.0]}\n'

    def test_jsonl_is_valid_json(self):
        keys = ["name", "x", "n", "flag", "pair"]
        line = render_rows((keys, [("a b", 0.1, 3, True, 1.5 - 2.0j)]), "jsonl")
        back = json.loads(line)
        assert back == {"name": "a b", "x": 0.1, "n": 3, "flag": True, "pair": [1.5, -2.0]}
        assert back["flag"] is True

    def test_jsonl_escapes_quotes(self):
        line = render_rows((["s"], [('say "hi" \\ bye',)]), "jsonl")
        assert json.loads(line)["s"] == 'say "hi" \\ bye'

    def test_jsonl_keys_keep_braces(self):
        line = render_rows((["{0}", "a}"], [(1, 2)]), "jsonl")
        assert json.loads(line) == {"{0}": 1, "a}": 2}

    def test_render_csv_header_and_floats(self):
        rows = (["a", "b"], [(1, 0.1), (2, 0.25)])
        text = render_rows(rows, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.10000000000000001"
        assert "\r" not in text

    def test_render_jsonl_line_per_row(self):
        rows = (["a"], [(1,), (2,)])
        text = render_rows(rows, "jsonl")
        assert text.count("\n") == 2
        assert [json.loads(x)["a"] for x in text.strip().splitlines()] == [1, 2]

    def test_complex_pairs_flatten_in_csv(self):
        rows = (["z", "n"], [(1.0 - 2.0j, 1)])
        text = render_rows(rows, "csv")
        header = text.splitlines()[0]
        assert header == "z_re,z_im,n"


# every cell type a report row may carry; columns change type between rows,
# so one table exercises several cached row templates
_STR_CELLS = st.text(alphabet=[",", '"', "\r", "\n", "a", " ", "\\", "é"], max_size=6)
_JSON_CELLS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0**-1030]),
    st.floats().map(np.float64),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.booleans(),
    _STR_CELLS,
)
_ALL_CELLS = st.one_of(
    _JSON_CELLS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)


# any text, and short runs of control characters, which JSON must escape
_PARSE_CELLS = st.one_of(
    _JSON_CELLS,
    st.text(max_size=8),
    st.text(alphabet=st.characters(max_codepoint=0x20), max_size=4),
)


@st.composite
def _tables(draw, cells):
    width = draw(st.integers(1, 5))
    keys = [f"c{i}" for i in range(width)]
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=6))
    return keys, rows


class TestRenderOracle:
    """render_rows against the dict rows through csv.writer that it replaced."""

    def check(self, keys, rows):
        res = RunResult(keys)
        for row in rows:
            res.add(*row)
            with pytest.raises(ValueError):
                res.add(*row, 0)
            with pytest.raises(ValueError):
                res.add(*row[:-1])
        dicts = rows_as_dicts(keys, res.rows)
        for fmt in ("csv", "jsonl"):
            try:
                want = render_rows_oracle(dicts, fmt)
            except TypeError:
                # numpy integers, float32 and bool_ have no JSON form
                with pytest.raises(TypeError):
                    render_rows((keys, res.rows), fmt)
            else:
                assert render_rows((keys, res.rows), fmt) == want

    @settings(max_examples=300)
    @given(_tables(_ALL_CELLS))
    def test_every_cell_type(self, table):
        self.check(*table)

    @settings(max_examples=150)
    @given(_tables(_JSON_CELLS))
    def test_json_cell_types(self, table):
        self.check(*table)

    def test_edge_cells(self):
        self.check(["s"], [("",), ("a,b",), ('"',), ("\r",), ("x\ny",)])
        self.check(
            ["a", "b", "c"],
            [
                (np.float32(0.1), np.int64(2**62), np.bool_(True)),
                (1 + 2j, -0.0, 2**53 + 1),
                ("", math.nan, np.complex128(5e-324 - 1j)),
            ],
        )
        assert render_rows((["a"], []), "csv") == ""
        assert render_rows((["a"], []), "jsonl") == ""


def _parsed_as(cell, back) -> bool:
    """back, a value read by json.loads, is this report cell; a float cell
    reads back as a float, with its sign when it is zero."""
    if isinstance(cell, complex):
        return (
            isinstance(back, list)
            and len(back) == 2
            and all(map(_parsed_as, (cell.real, cell.imag), back))
        )
    if isinstance(cell, float):
        return isinstance(back, float) and (
            math.isnan(back)
            if math.isnan(cell)
            else back == cell and math.copysign(1, back) == math.copysign(1, cell)
        )
    return back == cell and isinstance(back, bool) == isinstance(cell, bool)


class TestJsonlParses:
    """Every JSON line json.loads reads back to the cells of its row."""

    @settings(max_examples=300)
    @given(_tables(_PARSE_CELLS))
    def test_every_line_parses_back_to_its_cells(self, table):
        keys, rows = table
        text = render_rows((keys, rows), "jsonl")
        # split on LF alone: str cells may hold U+2028, which JSON keeps raw
        lines = text.split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            back = json.loads(line)
            assert list(back) == keys
            assert all(map(_parsed_as, row, back.values())), (line, row)

    def test_nonfinite_and_control_cells(self):
        row = (math.nan, -math.inf, complex(math.inf, math.nan), "a\nb\x00\t")
        line = render_rows((["a", "b", "c", "d"], [row]), "jsonl")
        assert line == (
            '{"a": NaN, "b": -Infinity, "c": [Infinity, NaN], "d": "a\\nb\\u0000\\t"}\n'
        )
        assert _parsed_as(row[2], json.loads(line)["c"])
