"""Relative error and deterministic CSV / JSON-lines serialization.

Output files are meant to be byte-reproducible for a fixed configuration:
rows are emitted in a sorted or otherwise fixed order by the callers.  CSV
prints floats with 17 significant digits; JSON lines print floats (2.0,
-0.0, 1e+16, NaN, Infinity) and escape str cells as `json.dumps` does.
Both give back the exact double.  A report is a pair (keys, rows):
each row is a tuple of values in key order, and a complex value fills a
key_re, key_im column pair.
"""

from __future__ import annotations

from functools import cache

BLOCK = 256  # rows rendered at once: a report's blocks, and render_rows' own


def rel_err(brute: complex, closed: complex) -> float:
    """|brute - closed| against the larger magnitude (absolute if both vanish)."""
    abs_err = abs(brute - closed)
    scale = max(abs(brute), abs(closed))
    return abs_err / scale if scale > 0 else abs_err


def _csv_str(s: str) -> str:
    """csv.writer's minimal quoting under "\\n" line ends: a cell holding a
    comma, a quote or a newline is quoted, with its quotes doubled."""
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _JsonText(str):
    """A cell already written as JSON text, which a JSON line copies."""


def _json_text(v):
    """A float or complex cell as JSON text, NaN and the infinities named as
    json names them; any other cell as it is."""
    if isinstance(v, complex):
        return _JsonText(f"[{_json_text(v.real)}, {_json_text(v.imag)}]")
    if isinstance(v, float):
        s = str(v)
        return _JsonText(_JSON_NONFINITE.get(s, s))
    return v


def _line(types: tuple, keys: list | None = None):
    """The line of a row whose cells have these types, as a function of its
    cells: a CSV record, or with keys a JSON object.  A float or complex
    part gets 17 digits in CSV and str() in JSON, a str is quoted (a
    `_JsonText` copied), a JSON bool is true/false, and any other cell is
    str(); JSON refuses a type it has no form for."""
    jsonl = keys is not None
    if jsonl:
        from json import JSONEncoder  # only a JSON report loads json

        json_str = JSONEncoder(ensure_ascii=False).encode
    cells, convert = [], {}
    for i, t in enumerate(types[: len(keys)] if jsonl else types):
        cell = f"{{{i}!s}}"
        if jsonl and issubclass(t, complex):
            cell = f"[{{{i}.real!s}}, {{{i}.imag!s}}]"
        elif issubclass(t, complex):
            cell = f"{{{i}.real:.17g}},{{{i}.imag:.17g}}"
        elif issubclass(t, float) and not jsonl:
            cell = f"{{{i}:.17g}}"
        elif issubclass(t, str) and t is not _JsonText:
            convert[i] = json_str if jsonl else _csv_str
        elif jsonl and t is bool:
            convert[i] = {True: "true", False: "false"}.get
        elif jsonl and not issubclass(t, (int, float, _JsonText)):
            raise TypeError(f"cannot serialize {t}")
        if jsonl:
            cell = '"' + keys[i].replace("{", "{{").replace("}", "}}") + '": ' + cell
        cells.append(cell)
    if jsonl:
        line = ("{{" + ", ".join(cells) + "}}\n").format
    else:
        line = (",".join(cells) + "\n").format
        if len(types) == 1 and convert:  # csv.writer quotes an empty line
            convert[0] = lambda s: _csv_str(s) or '""'
    if not convert:
        return line
    return lambda *row: line(*[convert[i](v) if i in convert else v for i, v in enumerate(row)])


def render_rows(table: tuple, fmt: str) -> str:
    """Serialize a (keys, rows) report as 'csv' or 'jsonl' text (UTF-8, LF
    endings); the first row's complex cells split the CSV header's keys.  CSV
    keys of None render the rows alone, as a report's later blocks."""
    keys, rows = table
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    # one line function per row signature
    line_of = cache(_line) if fmt == "csv" else cache(lambda types: _line(types, keys))

    def lines(block):
        return "".join(line_of(tuple(map(type, r)))(*r) for r in block)

    def block_at(i):
        # a JSON block that wrote nan or inf is redone from JSON text
        text = lines(rows[i : i + BLOCK])
        if fmt == "jsonl" and ("nan" in text or "inf" in text):
            text = lines([tuple(map(_json_text, r)) for r in rows[i : i + BLOCK]])
        return text

    out = ""
    if rows and keys and fmt == "csv":
        header = [
            k + part
            for k, v in zip(keys, rows[0])
            for part in (("_re", "_im") if isinstance(v, complex) else ("",))
        ]
        out = line_of((str,) * len(header))(*header)
    return out + "".join(map(block_at, range(0, len(rows), BLOCK)))
