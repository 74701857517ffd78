"""Relative error and deterministic CSV / JSON-lines serialization.

Output files are meant to be byte-reproducible for a fixed configuration:
rows are emitted in a sorted or otherwise fixed order by the callers and
floats are printed with 17 significant digits (exact double round-trip).
"""

from __future__ import annotations

import csv
import io


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
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def dumps_jsonl_row(d: dict) -> str:
    """One JSON object per line, insertion-ordered keys, 17-digit floats."""
    body = ", ".join(f'"{k}": {_json_value(v)}' for k, v in d.items())
    return "{" + body + "}"


def _csv_cells(d: dict) -> list:
    """A row's cells in column order; a [re, im] pair fills two."""
    cells = []
    for v in d.values():
        if isinstance(v, (list, tuple)):
            cells += map(fmt_float, v)
        else:
            cells.append(fmt_float(v) if isinstance(v, float) else v)
    return cells


def render_rows(dicts: list[dict], fmt: str) -> str:
    """Serialize dict rows as 'csv' or 'jsonl' text (UTF-8, LF endings)."""
    if fmt == "jsonl":
        return "".join(dumps_jsonl_row(d) + "\n" for d in dicts)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if not dicts:
        return ""
    header = [
        k + part
        for k, v in dicts[0].items()
        for part in (("_re", "_im") if isinstance(v, (list, tuple)) else ("",))
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cells, dicts))
    return buf.getvalue()
