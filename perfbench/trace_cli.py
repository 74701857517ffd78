"""Run one cosetlfun CLI invocation with spans around each layer's functions.

    python3 perfbench/trace_cli.py SUMMARY.json SPANS.tsv CLI-ARGS...

Imports `cosetlfun.cli` (timed), wraps the public functions listed in
TARGETS in every `cosetlfun` namespace that binds them, runs
`cli.main(CLI-ARGS)` as the `cosetlfun` console script would, and exits with
its status.  Spans (id, name, start, end, parent) and the counts behind the
ratio metrics are kept in memory and written out after the CLI returns:
every span to SPANS.tsv, and per-function calls and self time to
SUMMARY.json.  A span's self time is its duration minus the part of it that
its child spans cover.  Each thread keeps its own span stack; a span opened
on a worker thread with an empty stack takes the main thread's innermost
open span (the handler that started the pool) as its parent.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (metric name, module, attribute path) of every traced function
TARGETS = (
    ("modular.modulus", "cosetlfun.modular", "modulus"),
    ("modular.table_build", "cosetlfun.modular", "PrimePowerModulus.__init__"),
    ("modular.padic_log", "cosetlfun.modular", "padic_log"),
    ("characters.value_table", "cosetlfun.characters", "DirichletCharacter.value_table"),
    ("characters.enumerate_coset", "cosetlfun.characters", "enumerate_coset"),
    ("characters.postnikov_ell", "cosetlfun.characters", "postnikov_ell"),
    ("gauss.gauss_sum_brute", "cosetlfun.gauss", "gauss_sum_brute"),
    ("gauss.gauss_sum_odoni", "cosetlfun.gauss", "gauss_sum_odoni"),
    ("gauss.coset_epsilon_average", "cosetlfun.gauss", "coset_epsilon_average"),
    ("gauss.coset_epsilon_average_closed", "cosetlfun.gauss", "coset_epsilon_average_closed"),
    ("lcentral.l_value", "cosetlfun.lcentral", "l_value"),
    ("moments.moment_report", "cosetlfun.moments", "moment_report"),
    ("moments.empirical_coset_moment", "cosetlfun.moments", "empirical_coset_moment"),
    ("moments.predict_moment", "cosetlfun.moments", "predict_moment"),
    ("vdc.coset_shift_identity", "cosetlfun.vdc", "coset_shift_identity"),
    ("vdc.twisted_sum", "cosetlfun.vdc", "twisted_sum"),
    ("vdc.vdc_inequality_check", "cosetlfun.vdc", "vdc_inequality_check"),
    ("vdc.amplified_l2_identity", "cosetlfun.vdc", "amplified_l2_identity"),
    ("hybrid.lemma9_scan", "cosetlfun.hybrid", "lemma9_scan"),
    ("hybrid.char_sum_S", "cosetlfun.hybrid", "char_sum_S"),
    ("hybrid.hybrid_moment_quadrature", "cosetlfun.hybrid", "hybrid_moment_quadrature"),
    ("report.render_rows", "cosetlfun.report", "render_rows"),
)
HANDLER = "cli.handler"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        # l_value / gauss_sum_brute argument keys and the values behind the
        # ratio metrics; list.append is atomic under the interpreter lock
        self.gauss_keys = []
        self.l_keys = []
        self.l_bounds = []
        self.report_bytes = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, record=None):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        def traced(*args, **kwargs):
            st = self._stack()
            if st:
                parent = st[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            st.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.pop()
                spans.append((sid, name, start, end, parent))
            if record is not None:
                record(result, *args, **kwargs)
            return result

        return traced

    def _record_gauss(self, result, chi, n=1):
        q = chi.modulus.q
        self.gauss_keys.append((q, chi.c, n % q))

    def _record_l_value(self, result, chi, t=0.0):
        self.l_keys.append((chi.modulus.q, chi.c, float(t)))
        self.l_bounds.append(result.abs_error_bound)

    def _record_render(self, result, dicts, fmt):
        self.report_bytes.append(len(result.encode("utf-8")))

    def install(self, cli) -> None:
        """Wrap every target in each loaded cosetlfun namespace binding it."""
        records = {
            "gauss.gauss_sum_brute": self._record_gauss,
            "lcentral.l_value": self._record_l_value,
            "report.render_rows": self._record_render,
        }
        namespaces = [
            mod
            for name, mod in sys.modules.items()
            if name == "cosetlfun" or name.startswith("cosetlfun.")
        ]

        def rebind(orig, wrapped):
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

        for metric, module, path in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self.wrap(metric, orig, records.get(metric))
            if cls_path:
                setattr(owner, attr, wrapped)
            else:
                rebind(orig, wrapped)
        for sub, orig in list(cli.HANDLERS.items()):
            wrapped = self.wrap(HANDLER, orig)
            cli.HANDLERS[sub] = wrapped
            rebind(orig, wrapped)

    def self_times(self) -> dict:
        """Per name: calls and summed self time (duration minus the union
        of the child intervals)."""
        children = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = {}
        for sid, name, start, end, _ in self.spans:
            covered = 0.0
            cur_lo = cur_hi = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if lo > cur_hi:
                    covered += cur_hi - cur_lo
                    cur_lo = lo
                cur_hi = max(cur_hi, hi)
            covered += cur_hi - cur_lo
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += max(0.0, end - start - covered)
        return out

    def summary(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "funcs": self.self_times(),
            "gauss_distinct": len(set(self.gauss_keys)),
            "l_distinct": len(set(self.l_keys)),
            "l_grid_points": len({(q, t) for q, _, t in self.l_keys}),
            "l_max_bound": max(self.l_bounds, default=0.0),
            "report_bytes": sum(self.report_bytes),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main() -> int:
    summary_path, spans_path, *cli_args = sys.argv[1:]
    t0 = time.perf_counter()
    import cosetlfun.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(cli)
    status = cli.main(cli_args)
    sys.stdout.flush()
    tracer.write_spans(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(import_s), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
