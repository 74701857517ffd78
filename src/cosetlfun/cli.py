"""Verification command line: one subcommand per identity family.

Every run executes its checks over a (p, k, j) grid, emits one report row
per instance (CSV or JSON lines, deterministic byte-for-byte for a fixed
configuration), and exits 0 exactly when all hard assertions pass.  Checks
whose bounds carry unspecified constants are soft: they warn on stderr and
only fail the run under --strict.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import IO, Callable

from .characters import (
    CosetSpec,
    DirichletCharacter,
    even_primitive_exponents,
    level_modulus,
    postnikov_ell,
    primitive_exponents,
    proper_level,
)
from .errors import ConfigError, CosetLFunError
from .gauss import (
    coset_epsilon_average,
    coset_epsilon_average_closed,
    eps_regimes,
    gauss_ratio_check,
    gauss_sum_odoni,
    gauss_sums,
    near_one_root_number_check,
)
from .hybrid import hybrid_moment_quadrature, lemma9_scan
from .modular import PrimePowerModulus, check_modulus, modulus, sample_units
from .moments import MomentReport, RecipeParams, moment_report, recipe_params
from .report import BLOCK, rel_err, render_rows
from .vdc import (
    FiniteSequence,
    amplified_l2_identity,
    coset_shift_identity,
    random_sequence,
    vdc_inequality_check,
)


@dataclass
class RunResult:
    """Report and check outcomes of one run.  `main` creates it with the
    subcommand's row keys, seed, report format and tolerance check (the
    failures of a block of rows), renders the last block at the end, and
    copies the spool, the rendered blocks in order, to the report."""

    keys: list
    seed: int = 0
    fmt: str = "csv"
    check: Callable[[list], list] | None = None
    rows: list = field(default_factory=list)  # the block being filled
    spool: IO | None = None  # an unnamed temporary file, opened on the first flush
    count: int = 0
    hard_failures: list = field(default_factory=list)
    tolerance_failures: list = field(default_factory=list)
    soft_warnings: list = field(default_factory=list)

    @cached_property
    def rng(self):
        """The run's seeded stream, one for the whole grid: `default_rng(seed)`'s
        draws, bit for bit.  Imported on first use, so a subcommand that
        draws nothing never compiles it, and none loads numpy.random."""
        from .seeded import SeededStream

        return SeededStream(self.seed)

    def add(self, *values) -> None:
        """Append a row given in report-column order; a complex value fills
        its _re/_im column pair.  A full block is rendered at once."""
        if len(values) != len(self.keys):
            raise ValueError(f"{len(values)} values for {len(self.keys)} columns")
        self.rows.append(values)
        if len(self.rows) == BLOCK:
            self.flush()

    def flush(self) -> None:
        """Render the held rows as the report's next block (the first with
        the CSV header) onto the spool, check them, and drop them (rebound,
        not cleared)."""
        keys = self.keys if self.fmt == "jsonl" or not self.count else None
        if self.spool is None:
            self.spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        self.spool.write(render_rows((keys, self.rows), self.fmt))
        if self.check:
            self.tolerance_failures += self.check(self.rows)
        self.count += len(self.rows)
        self.rows = []


# ---------------------------------------------------------------- subcommands


def cmd_gauss_verify(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Closed-form Gauss sums against the direct character sum, all primitive
    chi.  The brute_* columns hold that sum, evaluated for every chi of a
    modulus at once by one FFT in generator order (`gauss_sums`)."""
    taus = gauss_sums(m)
    for c in primitive_exponents(m):
        brute = complex(taus[c])
        closed = gauss_sum_odoni(DirichletCharacter(m, c))
        abs_err = abs(brute - closed)
        res.add(m.p, m.k, m.q, c, brute, closed, abs_err, abs_err / abs(closed))


def cmd_coset_eps(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Coset averages of normalized Gauss sums: brute vs closed forms."""
    p, k = m.p, m.k
    for j in args.j or [j for j in range(1, k) if eps_regimes(p, k, j)]:
        regimes = eps_regimes(p, k, j)
        if not regimes:
            raise ConfigError(
                f"level j = {j} fits no average regime at (p, k) = ({p}, {k})"
            )
        c = res.rng.choice(even_primitive_exponents(m))
        spec = CosetSpec(DirichletCharacter(m, c), j, "even")
        twists = sample_units(res.rng, m.q, p, args.m_samples)
        for tw, brute in zip(twists, coset_epsilon_average(spec, twists)):
            for regime in regimes:
                closed = coset_epsilon_average_closed(spec, tw, regime)
                res.add(p, k, j, regime, c, tw, brute, closed, abs(brute - closed))


def cmd_ratio(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Gauss-sum ratios along a coset against the character-value formula."""
    # enumerate pairs whose ratio conductor divides p^floor(k/2): on that
    # window the collapsed formula holds for every k; at the ceil boundary
    # an odd k picks up an extra p-th root of unity (see the ratio tests)
    step = m.p ** (m.k - m.k // 2)
    twists = sample_units(res.rng, m.q, m.p, args.m_samples)
    for c1 in primitive_exponents(m):
        chi1 = DirichletCharacter(m, c1)
        for d in range(0, m.phi, step):
            c2 = (c1 - d) % m.phi
            chi2 = DirichletCharacter(m, c2)
            for tw in twists:
                brute, closed = gauss_ratio_check(chi1, chi2, tw)
                res.add(m.q, c1, c2, tw, brute, closed, rel_err(brute, closed))


def cmd_near_one(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Cosets pinned near the trivial logarithm parameter: fixed root number."""
    for psi, brute, closed in near_one_root_number_check(m):
        res.add(m.q, f"q={m.q} c={psi.c}", brute, closed, rel_err(brute, closed))


def cmd_moment(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Empirical coset second moments against the predicted main terms."""
    for j in args.j:
        # a coset's report depends on its base only through chi_exponent
        # and ell, and enumerate_coset gives every base the same sorted
        # members, so one report per coset c mod p^(k-j) yields each
        # base's row bit for bit
        qkj = m.q // proper_level(m, j)
        by_coset = {}
        exponents = even_primitive_exponents(m)
        improved = 0
        for c in exponents:
            chi = DirichletCharacter(m, c)
            key = c % qkj
            if key not in by_coset:
                by_coset[key] = moment_report(chi, j, args.retain_phase)
            r = by_coset[key]
            res.add(*r._replace(chi_exponent=c, ell=postnikov_ell(chi)))
            improved += abs(r.residual) < abs(r.baseline_residual)
            if not all(map(math.isfinite, (r.empirical, r.D, r.A, r.residual))):
                res.hard_failures.append(f"moment q={m.q} c={c}: non-finite value")
        if improved < len(exponents):
            res.soft_warnings.append(
                f"moment q={m.q} j={j}: secondary term improves the "
                f"residual at {improved}/{len(exponents)} characters (the "
                "theorem's error term dominates at desk-scale moduli)"
            )


def cmd_recipe(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Signed minimal lifts of the logarithm parameter, with window checks."""
    for j in args.j:
        q0 = proper_level(m, j)
        qkj = m.q // q0
        for c in even_primitive_exponents(m):
            params = recipe_params(DirichletCharacter(m, c), j)
            ok = (
                (params.a_chi - params.ell) % qkj == 0
                and 2 * abs(params.a_chi) <= qkj
                and (params.b_chi - params.a_chi) % q0 == 0
                and 2 * abs(params.b_chi) <= q0
            )
            if not ok:
                res.hard_failures.append(f"recipe q={m.q} c={c}: lift windows violated")
            res.add(*params)


def cmd_vdc(args, m: None, res: RunResult) -> None:
    """Shift inequality and amplifier identity on random + adversarial runs."""

    def check(kind: str, idx: int, seq: FiniteSequence, H: int):
        lhs, rhs = vdc_inequality_check(seq, H)
        pl, pr = amplified_l2_identity(seq, H)
        ok_ineq = lhs <= rhs + 1e-9 * (1 + abs(rhs))
        ok_pars = abs(pl - pr) <= 1e-9 * (1 + abs(pl))
        ok = bool(ok_ineq and ok_pars)
        res.add(kind, idx, len(seq), H, lhs, rhs, rhs - lhs, pl, pr, ok)
        if not ok_ineq:
            res.hard_failures.append(
                f"vdc {kind}#{idx}: inequality violated by {lhs - rhs:.3e}"
            )
        if not ok_pars:
            res.hard_failures.append(
                f"vdc {kind}#{idx}: amplifier identity off by {abs(pl - pr):.3e}"
            )

    for i in range(args.trials):
        n = int(res.rng.integers(1, 201))
        h = int(res.rng.integers(1, n + 1))
        check("random", i, random_sequence(n, res.rng), h)
    check("all-ones", 0, FiniteSequence(1, (1 + 0j,) * 120), 12)
    check("alternating", 0, FiniteSequence(1, tuple((-1.0) ** n + 0j for n in range(121))), 9)
    spike = [0j] * 64
    spike[17] = 1 + 0j
    check("spike", 0, FiniteSequence(1, tuple(spike)), 8)


def cmd_shift_identity(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Coset mean square vs shifted autocorrelations on random sequences."""
    exponents = list(primitive_exponents(m))
    for j in args.j or range(0, m.k + 1):
        for i in range(args.trials):
            c = res.rng.choice(exponents)
            seq = random_sequence(50, res.rng)
            lhs, rhs = coset_shift_identity(seq, DirichletCharacter(m, c), j)
            res.add(m.q, j, i, c, lhs, rhs, abs(lhs - rhs) / max(1.0, abs(lhs)))


def cmd_lemma9(args, m: PrimePowerModulus, res: RunResult) -> None:
    """|S| mass scans against the square-root envelope (soft guard only)."""
    for j in args.j or [1]:
        scan = lemma9_scan(m, j, args.A, args.B)
        for r in scan.rows:
            res.add(*r.values())
        if not scan.soft_guard_ok():
            res.soft_warnings.append(
                f"lemma9 q={m.q} j={j}: max ratio {scan.max_ratio:.3f} "
                f"exceeds {scan.GUARD_FACTOR}x base {scan.base_ratio:.3f}"
            )


def cmd_hybrid(args, m: PrimePowerModulus, res: RunResult) -> None:
    """Windowed coset moment quadrature against the hybrid envelope."""
    chi = DirichletCharacter(m, 1)
    for j in args.j or [1]:
        hq = hybrid_moment_quadrature(chi, j, args.T, args.T0, args.t_step)
        drift = abs(hq.halved_step_lhs - hq.lhs) / max(1e-30, abs(hq.lhs))
        res.add(
            m.q, level_modulus(m, j), args.T, args.T0, args.t_step,
            hq.lhs, hq.envelope, hq.ratio, hq.halved_step_lhs, drift,
        )
        if drift > 0.01:
            res.soft_warnings.append(
                f"hybrid q={m.q} j={j}: step-halving moved the integral "
                f"by {drift:.2%} (> 1%)"
            )


# ------------------------------------------------------------------ the table

# every flag a handler may read beyond the shared ones; a subcommand
# registers only those its spec lists
FLAGS = {
    "--p": dict(type=int, nargs="+", default=[], help="prime grid"),
    "--k": dict(type=int, nargs="+", default=[], help="exponent grid"),
    "--j": dict(type=int, nargs="+", default=[], help="level grid"),
    "--m-samples": dict(type=int, default=10, help="sampled twists per instance"),
    "--trials": dict(type=int, default=100, help="random instances"),
    "--retain-phase": dict(
        action="store_true", help="keep the unimodular phase on the secondary term"
    ),
    "--T": dict(type=float, default=10.0, help="window start"),
    "--T0": dict(type=float, default=2.0, help="window length"),
    "--t-step": dict(type=float, default=0.25, help="quadrature step"),
    "--A": dict(type=int, default=16, help="shift cap"),
    "--B": dict(type=int, default=16, help="frequency cap"),
}
GRID = ("--p", "--k")


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its handler, the report columns shown in --help, the
    noun its summary line counts, the flags it reads, and the column held to
    the hard tolerance (none for subcommands without one) with its default.
    The handler is called once per modulus of the (p, k) grid, or once with
    None when the subcommand has no grid."""

    handler: Callable[[argparse.Namespace, PrimePowerModulus | None, RunResult], None]
    columns: str
    noun: str
    flags: tuple = GRID
    checked: str | None = None
    tolerance: float = 1e-9
    defaults: dict = field(default_factory=dict)

    @property
    def keys(self) -> list:
        """Row keys: the report columns with each _re/_im pair as one key."""
        cols = self.columns.split(",")
        return [c.removesuffix("_re") for c in cols if not c.endswith("_im")]

    def failures(self, name: str, tolerance: float, rows: list) -> list:
        """The FAIL lines of the rows whose checked column exceeds the
        tolerance, each naming its row by the row's int and str cells."""
        keys, col, out = self.keys, self.keys.index(self.checked), []
        for row in rows:
            if not row[col] <= tolerance:  # so that a NaN fails too
                where = " ".join(f"{k}={v}" for k, v in zip(keys, row) if isinstance(v, (int, str)))
                out.append(f"{name} {where}: {self.checked} {row[col]:.3e} > {tolerance:.1e}")
        return out


SPECS = {
    "gauss-verify": Subcommand(
        cmd_gauss_verify,
        "p,k,q,chi_exponent,brute_re,brute_im,closed_re,closed_im,abs_err,rel_err",
        "characters checked",
        checked="rel_err",
    ),
    "coset-eps": Subcommand(
        cmd_coset_eps,
        "p,k,j,regime,chi_exponent,m,brute_re,brute_im,closed_re,closed_im,abs_err",
        "averages checked",
        GRID + ("--j", "--m-samples"),
        checked="abs_err",
    ),
    "ratio": Subcommand(
        cmd_ratio,
        "q,chi1,chi2,m,brute_re,brute_im,closed_re,closed_im,rel_err",
        "pairs checked",
        GRID + ("--m-samples",),
        checked="rel_err",
    ),
    "near-one": Subcommand(
        cmd_near_one,
        "q,instance,computed_re,computed_im,pinned_re,pinned_im,rel_err",
        "coset members checked",
        checked="rel_err",
    ),
    "moment": Subcommand(
        cmd_moment,
        ",".join(MomentReport._fields),
        "characters reported",
        GRID + ("--j", "--retain-phase"),
    ),
    "recipe": Subcommand(
        cmd_recipe,
        ",".join(RecipeParams._fields),
        "characters lifted",
        GRID + ("--j",),
    ),
    "vdc": Subcommand(
        cmd_vdc,
        "kind,trial,N,H,lhs,rhs,margin,parseval_lhs,parseval_rhs,ok",
        "instances, all inequalities checked",
        ("--trials",),
        defaults={"trials": 1000},
    ),
    "shift-identity": Subcommand(
        cmd_shift_identity,
        "q,j,trial,chi_exponent,lhs,rhs,rel_err",
        "sequences checked",
        GRID + ("--j", "--trials"),
        checked="rel_err",
        tolerance=1e-8,
    ),
    "lemma9": Subcommand(
        cmd_lemma9,
        "kind,q,q0,A,B,sum_S,envelope,ratio",
        "grid points scanned",
        GRID + ("--j", "--A", "--B"),
    ),
    "hybrid": Subcommand(
        cmd_hybrid,
        "q,q0,T,T0,t_step,lhs,envelope,ratio,halved_step_lhs,quadrature_drift",
        "windows integrated",
        GRID + ("--j", "--T", "--T0", "--t-step"),
    ),
}
SUBCOMMANDS = tuple(SPECS)
# main looks handlers up here at call time, so a caller may wrap them
HANDLERS = {name: spec.handler for name, spec in SPECS.items()}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cosetlfun",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = top.add_subparsers(dest="subcommand", required=True)
    for name, spec in SPECS.items():
        doc = spec.handler.__doc__
        sp = subs.add_parser(
            name,
            help=doc,
            description=f"{doc}\n\nreport columns: {spec.columns}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for flag in spec.flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.add_argument("--seed", type=int, default=0, help="RNG seed, any int >= 0")
        if spec.checked:
            sp.add_argument(
                "--tolerance",
                type=float,
                default=spec.tolerance,
                help=f"hard tolerance on {spec.checked}",
            )
        sp.add_argument("--out", default=None, help="report file (default: stdout)")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        sp.add_argument("--strict", action="store_true", help="promote soft warnings to failures")
        sp.set_defaults(**spec.defaults)
    return top


def check_args(args: argparse.Namespace) -> None:
    """Reject values no handler can run on, as a ConfigError."""
    given = vars(args)
    if "p" in given and not (args.p and args.k):
        raise ConfigError("empty grid: --p and --k are required here")
    # every modulus of the grid is checked before the first is built
    for p, k in itertools.product(given.get("p", ()), given.get("k", ())):
        check_modulus(p, k)
    if not given.get("tolerance", 1.0) > 0:
        raise ConfigError(f"tolerance must be positive, got {args.tolerance}")
    for key, least in (("seed", 0), ("m_samples", 1), ("trials", 1)):
        if given.get(key, least) < least:
            flag = key.replace("_", "-")
            raise ConfigError(f"{flag} must be >= {least}, got {given[key]}")
    if args.out:
        if os.path.isdir(args.out):
            raise ConfigError(f"output path is a directory: {args.out}")
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise ConfigError(f"output directory not writable: {parent}")
    if args.subcommand in ("moment", "recipe") and not args.j:
        raise ConfigError(f"{args.subcommand} needs an explicit --j grid")
    if args.subcommand == "coset-eps" and min(args.k) < 2:
        raise ConfigError(f"coset-eps needs k >= 2, got k = {min(args.k)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = SPECS[args.subcommand]
    check = partial(spec.failures, args.subcommand, args.tolerance) if spec.checked else None
    result = RunResult(spec.keys, args.seed, args.format, check)
    try:
        check_args(args)
        if GRID[0] in spec.flags:
            for p, k in itertools.product(args.p, args.k):
                HANDLERS[args.subcommand](args, modulus(p, k), result)
        else:
            HANDLERS[args.subcommand](args, None, result)
        result.flush()
        result.spool.seek(0)
        with (
            open(args.out, "w", encoding="utf-8", newline="")
            if args.out
            else nullcontext(sys.stdout)
        ) as fh:
            # the copy runs at the run's high-water mark: 8 KiB at a time
            # (io's buffer size), not shutil's 64 KiB, adds nothing to it
            shutil.copyfileobj(result.spool, fh, io.DEFAULT_BUFFER_SIZE)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (CosetLFunError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        if result.spool is not None:
            result.spool.close()

    for w in result.soft_warnings:
        print(f"warning: {w}", file=sys.stderr)
    failures = result.hard_failures + result.tolerance_failures
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    status = "FAIL" if failures else "ok"
    if args.strict and result.soft_warnings:
        status = "FAIL"
    summary = f"{args.subcommand}: {result.count} {spec.noun}"
    print(f"{summary} [{status}]", file=sys.stderr)
    return 1 if status == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
