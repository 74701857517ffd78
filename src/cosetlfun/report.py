"""Relative error and deterministic CSV / JSON-lines serialization.

Output files are meant to be byte-reproducible for a fixed configuration:
rows are emitted in a sorted or otherwise fixed order by the callers and
floats are printed with 17 significant digits (exact double round-trip).
A report is a pair (keys, rows): each row is a tuple of values in key
order, and a complex value fills a key_re, key_im column pair.
"""

from __future__ import annotations

from functools import cache


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def rel_err(brute: complex, closed: complex) -> float:
    """|brute - closed| against the larger magnitude (absolute if both vanish)."""
    abs_err = abs(brute - closed)
    scale = max(abs(brute), abs(closed))
    return abs_err / scale if scale > 0 else abs_err


def _json_value(v) -> str:
    if isinstance(v, str):
        # instance labels are plain ASCII; escape conservatively anyway
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, complex):
        v = (v.real, v.imag)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def dumps_jsonl_row(d: dict) -> str:
    """One JSON object per line, insertion-ordered keys, 17-digit floats."""
    body = ", ".join(f'"{k}": {_json_value(v)}' for k, v in d.items())
    return "{" + body + "}"


def _csv_str(s: str) -> str:
    """csv.writer's minimal quoting under "\\n" line ends: a cell holding a
    comma, a quote or a newline is quoted, with its quotes doubled."""
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(types: tuple):
    """The CSV line of a row whose cells have these types, as a function of
    its cells: 17 digits for a float or complex part, str() otherwise."""
    cells, strs = [], []
    for i, t in enumerate(types):
        if issubclass(t, complex):
            cells.append(f"{{{i}.real:.17g}},{{{i}.imag:.17g}}")
        elif issubclass(t, float):
            cells.append(f"{{{i}:.17g}}")
        else:
            cells.append(f"{{{i}!s}}")
            if issubclass(t, str):
                strs.append(i)
    line = (",".join(cells) + "\n").format
    if not strs:
        return line
    # csv.writer quotes a one-cell record that would be an empty line
    quote = _csv_str if len(types) > 1 else lambda s: _csv_str(s) or '""'
    return lambda *row: line(*[quote(v) if i in strs else v for i, v in enumerate(row)])


def render_rows(table: tuple, fmt: str) -> str:
    """Serialize a (keys, rows) report as 'csv' or 'jsonl' text (UTF-8, LF
    endings); the first row's complex cells split the CSV header's keys."""
    keys, rows = table
    if fmt == "jsonl":
        return "".join(dumps_jsonl_row(dict(zip(keys, row))) + "\n" for row in rows)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        return ""
    header = [
        k + part
        for k, v in zip(keys, rows[0])
        for part in (("_re", "_im") if isinstance(v, complex) else ("",))
    ]
    line_of = cache(_csv_line)  # one line function per row signature
    out = [line_of((str,) * len(header))(*header)]
    # joined in blocks, so the report never sits in memory as one str per line
    for i in range(0, len(rows), 4096):
        block = rows[i : i + 4096]
        out.append("".join(line_of(tuple(map(type, r)))(*r) for r in block))
    return "".join(out)
