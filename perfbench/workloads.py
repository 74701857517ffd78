"""The benchmark's workloads: fixed cosetlfun CLI sequences.

Each workload names the CLI invocations it runs one after another (the
benchmark appends `--seed`), the (p, k) moduli its set-up child builds, and
the reason it was chosen.  The three stress different layers, so a change to
one layer has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[tuple[str, ...], ...]
    moduli: tuple[tuple[int, int], ...]
    # per-layer metrics this workload exists to exercise; the traced run
    # fails if any reads zero, so a renamed function cannot go unnoticed
    nonzero: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # One time point and thousands of characters: the time goes to
        # per-character L-values (value_table, then l_value), and every coset
        # member re-sums its coset, so each distinct L-value is computed 27x
        # (3^8) or 50x (5^5).  Batching characters should move this one.
        Workload(
            name="moment-coset",
            why="one time point and 2458 coset moments: time goes to "
            "per-character L-values, each distinct one computed 27-50 times",
            invocations=(
                ("moment", "--p", "3", "--k", "8", "--j", "4"),
                ("moment", "--p", "5", "--k", "5", "--j", "3"),
            ),
            moduli=((3, 8), (5, 5)),
            nonzero=(
                "characters.value_table.calls",
                "characters.value_table.self_s",
                "lcentral.l_value.calls",
                "lcentral.l_value.self_s",
                "lcentral.l_value.unique_ratio",
                "moments.empirical_coset_moment.self_s",
            ),
        ),
        # lcentral the other way round: 26 time points (17 distinct t) and
        # only 52 L-values, so the Euler-Maclaurin Hurwitz grid at q = 3^10
        # dominates, plus char_sum_S scans.  The largest modulus, so the
        # largest dlog table and grid arrays.  Batching characters should
        # leave it flat.
        Workload(
            name="hurwitz-window",
            why="26 time points (17 distinct), 52 L-values at q=3^10: time goes "
            "to the Hurwitz grid and char_sum_S scans; largest modulus and arrays",
            invocations=(
                ("hybrid", "--p", "3", "--k", "10", "--j", "1"),
                ("lemma9", "--p", "3", "--k", "6", "--j", "1", "2", "3", "4"),
            ),
            moduli=((3, 10), (3, 6)),
            nonzero=(
                "lcentral.l_value.self_s",
                "lcentral.l_value.grid_points",
                "hybrid.char_sum_S.calls",
                "hybrid.char_sum_S.self_s",
                "hybrid.lemma9_scan.self_s",
            ),
        ),
        # No L-values at all: brute Gauss sums, p-adic logs in the closed
        # forms, the vdc twisted sums, and over 10k report rows.  The only
        # workload with seeded sampling, which the benchmark seed reaches.
        Workload(
            name="exact-sums",
            why="no L-values: brute Gauss sums, closed forms, vdc sums and "
            "11.5k report rows; the only workload with seeded sampling",
            invocations=(
                ("gauss-verify", "--p", "5", "--k", "6"),
                ("coset-eps", "--p", "5", "--k", "6"),
                ("shift-identity", "--p", "5", "--k", "4"),
                ("vdc",),
            ),
            moduli=((5, 6), (5, 4)),
            nonzero=tuple(
                f"{fn}.{kind}"
                for fn in (
                    "gauss.gauss_sum_brute",
                    "gauss.gauss_sum_odoni",
                    "gauss.coset_epsilon_average",
                    "gauss.coset_epsilon_average_closed",
                    "modular.padic_log",
                    "characters.postnikov_ell",
                    "vdc.coset_shift_identity",
                    "vdc.twisted_sum",
                    "vdc.vdc_inequality_check",
                    "vdc.amplified_l2_identity",
                )
                for kind in ("calls", "self_s")
            )
            + (
                "gauss.gauss_sum_brute.unique_ratio",
                "report.render_rows.self_s",
                "report.bytes",
            ),
        ),
    )
}

# Per-layer metrics every workload must show nonzero.  The modulus cache hit
# ratio is 0 at the seed commit (each (p, k) is looked up once per process),
# so the lookup count stands in for it.
NONZERO_ALL = (
    "modular.modulus.calls",
    "modular.table_build.calls",
    "modular.table_build.self_s",
    "cli.import_s",
    "cli.handler.self_s",
)

# Columns the CLI checks only for finiteness; the benchmark compares them to
# values recorded at the seed commit.  The other subcommands of the workloads
# carry hard brute-vs-closed checks, so their exit status suffices.
GATED_COLUMNS = {
    "moment": ("empirical", "D", "A"),
    "hybrid": ("lhs", "halved_step_lhs"),
    "lemma9": ("sum_S",),
}


def invocation_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)
