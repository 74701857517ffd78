import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref

import pytest

import cosetlfun.cli as cli_module
import cosetlfun.hybrid as hybrid_module
import cosetlfun.modular as modular_module
from cosetlfun.characters import DirichletCharacter, even_primitive_exponents
from cosetlfun.cli import SPECS, SUBCOMMANDS, build_parser, main
from cosetlfun.errors import PreconditionViolated
from cosetlfun.hybrid import Lemma9Scan
from cosetlfun.modular import PrimePowerModulus, modulus
from cosetlfun.moments import moment_report
from cosetlfun.report import BLOCK, render_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_child(script: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -c script argv...` in a fresh interpreter that imports the
    package from src/, its stdout and stderr captured as bytes."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in SUBCOMMANDS:
            args = parser.parse_args([name])
            assert args.subcommand == name

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-verify", "--p", "5", "--k", "2", "--T", "5"],
            ["hybrid", "--p", "3", "--k", "4", "--A", "2"],
            ["moment", "--p", "3", "--k", "4", "--j", "2", "--tolerance", "1"],
            ["vdc", "--p", "5"],
            ["moment", "--p", "3", "--k", "4", "--j", "2", "--retain-phase"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# one small invocation per subcommand
SMALL_RUNS = {
    "gauss-verify": ["--p", "5", "--k", "2"],
    "coset-eps": ["--p", "5", "--k", "4", "--m-samples", "1"],
    "ratio": ["--p", "3", "--k", "2", "--m-samples", "1"],
    "near-one": ["--p", "3", "--k", "2"],
    "moment": ["--p", "3", "--k", "4", "--j", "2"],
    "recipe": ["--p", "3", "--k", "4", "--j", "2"],
    "vdc": ["--trials", "2"],
    "shift-identity": ["--p", "3", "--k", "2", "--trials", "1"],
    "lemma9": ["--p", "3", "--k", "3", "--j", "1", "--A", "2", "--B", "2"],
    "hybrid": ["--p", "3", "--k", "2", "--j", "1"],
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_report_columns_match_help(name, capsys):
    with pytest.raises(SystemExit):
        main([name, "--help"])
    help_text = capsys.readouterr().out
    (line,) = [x for x in help_text.splitlines() if x.startswith("report columns: ")]
    columns = line.removeprefix("report columns: ").split(",")

    code, out, _ = run_cli(capsys, name, *SMALL_RUNS[name])
    assert code == 0
    assert out.splitlines()[0].split(",") == columns

    code, out, _ = run_cli(capsys, name, *SMALL_RUNS[name], "--format", "jsonl")
    assert code == 0
    for line in out.splitlines():
        keys = []
        for key, value in json.loads(line).items():
            pair = isinstance(value, list) and len(value) == 2
            keys += [f"{key}_re", f"{key}_im"] if pair else [key]
        assert keys == columns


def test_readme_flag_table_matches_specs():
    # the `| subcommand | flags |` table under README's "Command line"
    readme = os.path.join(SRC, os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    table = section.split("\n| subcommand | flags |\n|---|---|\n")[1]
    listed = {}
    for line in table.split("\n\n")[0].splitlines():
        names, flags = line.strip("| ").split(" | ")
        for name in names.replace("`", "").split(", "):
            assert name not in listed, f"{name} has two rows"
            listed[name] = flags.replace("`", "").split(", ")
    want = {
        name: list(spec.flags) + ["--tolerance"] * bool(spec.checked)
        for name, spec in SPECS.items()
    }
    assert listed == want


# inputs no handler can run on, with the start of the error line each gives:
# a library guard's exception type, or a check only the CLI makes
REJECTED = [
    (["gauss-verify", "--p", "5", "--k", "1"], "error: UnsupportedRegime:"),
    (["gauss-verify", "--p", "3", "--k", "3"], "error: UnsupportedRegime:"),
    (["ratio", "--p", "5", "--k", "1"], "error: DegenerateConductor:"),
    (["near-one", "--p", "3", "--k", "3"], "error: PreconditionViolated:"),
    (["moment", "--p", "5", "--k", "4", "--j", "1"], "error: RegimeMismatch:"),
    (["moment", "--p", "3", "--k", "5", "--j", "2"], "error: RegimeMismatch:"),
    (["recipe", "--p", "5", "--k", "4", "--j", "4"], "error: PreconditionViolated:"),
    (["shift-identity", "--p", "5", "--k", "2", "--j", "3"], "error: PreconditionViolated:"),
    (["moment", "--p", "5", "--k", "4"], "config error:"),
    (["moment", "--p", "3", "--k", "1", "--j", "1"], "error: PreconditionViolated:"),
    (["recipe", "--p", "3", "--k", "1", "--j", "1"], "error: PreconditionViolated:"),
    (["coset-eps", "--p", "5", "--k", "1"], "config error:"),
    (["coset-eps", "--p", "5", "--k", "4", "--j", "1"], "config error:"),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv,prefix", REJECTED, ids=[" ".join(a) for a, _ in REJECTED]
    )
    def test_rejected_input(self, argv, prefix, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith(prefix)

    def test_even_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gauss-verify", "--p", "2", "--k", "3")
        assert code == 2
        assert err.startswith("error: InvalidModulus: 2 is not an odd prime")

    def test_composite_base_rejected_before_any_modulus(self, capsys, monkeypatch):
        # 9 used to be refused by PrimePowerModulus, after all 10,000
        # characters of 5^6 had been checked and with no report written
        built = []
        monkeypatch.setattr(cli_module, "modulus", lambda p, k: built.append((p, k)))
        code, out, err = run_cli(capsys, "gauss-verify", "--p", "5", "9", "--k", "6")
        assert (code, out, built) == (2, "", [])
        assert err.startswith("error: InvalidModulus: 9 is not an odd prime")

    def test_base_over_the_cap_skips_trial_division(self, capsys, monkeypatch):
        # 2^61 - 1 is prime: trial division would take about 2^29 steps
        tested = []
        monkeypatch.setattr(modular_module, "is_prime", lambda n: tested.append(n) or True)
        code, out, err = run_cli(
            capsys, "gauss-verify", "--p", "5", str(2**61 - 1), "--k", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidModulus: q = 2305843009213693951^2 exceeds")
        assert tested == [5]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_negative_seed_rejected(self, name, capsys):
        # a negative seed is no SeedSequence entropy: numpy refuses it, and
        # so does the command line, before any handler draws
        grid = [] if name == "vdc" else ["--p", "5", "--k", "2"]
        code, out, err = run_cli(capsys, name, *grid, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("config error: seed must be >= 0, got -1")

    @pytest.mark.parametrize(
        "window",
        [["--t-step", "1e-320"], ["--T", "1e308", "--T0", "1e308"],
         ["--T", "inf", "--T0", "inf"], ["--T", "nan"]],
        ids=" ".join,
    )
    def test_hybrid_non_finite_window_rejected(self, window, capsys):
        code, out, err = run_cli(
            capsys, "hybrid", "--p", "3", "--k", "4", "--j", "1", *window
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: PreconditionViolated:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gauss-verify", "--p", "5", "--k", "2", "20"], "q = 5^20 exceeds the 2^31 cap"),
            (["moment", "--p", "3", "5", "--k", "4", "14", "--j", "2"], "q = 5^14 exceeds"),
        ],
    )
    def test_grid_over_the_cap_rejected_before_any_modulus(self, argv, message, capsys, monkeypatch):
        # 5^20 used to be refused by PrimePowerModulus, after all of 5^2 had
        # been checked and with no report written
        built = []
        monkeypatch.setattr(cli_module, "modulus", lambda p, k: built.append((p, k)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, built) == (2, "", [])
        assert err.startswith(f"error: InvalidModulus: {message}")

    def test_grid_tables_over_memory_rejected_before_any_modulus(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli_module, "modulus", lambda p, k: built.append((p, k)))
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 8 * 2**30)
        code, out, err = run_cli(capsys, "gauss-verify", "--p", "3", "--k", "2", "18")
        assert (code, out, built) == (2, "", [])
        assert err.startswith("error: InvalidModulus: the unit tables mod 3^18 need")

    def test_missing_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gauss-verify")
        assert code == 2
        assert "config error" in err

    def test_gauss_verify_k1_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gauss-verify", "--p", "5", "--k", "1")
        assert code == 2

    def test_tables_over_memory_rejected(self, capsys, monkeypatch):
        # 3^18's unit tables need 15.5e9 bytes: refused on an 8 GiB host
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 8 * 2**30)
        code, _, err = run_cli(capsys, "gauss-verify", "--p", "3", "--k", "18")
        assert code == 2
        assert "InvalidModulus" in err

    def test_hybrid_unfinishable_step(self, capsys):
        code, _, err = run_cli(
            capsys, "hybrid", "--p", "3", "--k", "2", "--j", "1",
            "--t-step", "1e-9",
        )
        assert code == 2
        assert "Euler-Maclaurin shift" in err

    def test_gauss_verify_p3_odd_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gauss-verify", "--p", "3", "--k", "3")
        assert code == 2
        assert "UnsupportedRegime" in err

    def test_moment_needs_level(self, capsys):
        code, _, err = run_cli(capsys, "moment", "--p", "5", "--k", "4")
        assert code == 2
        assert "--j" in err

    def test_moment_regime_none_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", "--p", "5", "--k", "4", "--j", "1"
        )
        assert code == 2

    def test_bad_tolerance_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "gauss-verify", "--p", "5", "--k", "2",
            "--tolerance=-1e-9",
        )
        assert code == 2

    def test_unwritable_out_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "gauss-verify", "--p", "5", "--k", "2",
            "--out", "/nonexistent-dir/report.csv",
        )
        assert code == 2

    def test_out_directory_rejected(self, capsys, tmp_path, monkeypatch):
        # refused before any modulus is built, not by open() after the grid
        monkeypatch.setattr(cli_module, "modulus", None)
        for argv in (["vdc", "--trials", "1"], ["gauss-verify", "--p", "3", "--k", "2"]):
            code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
            assert code == 2
            assert out == ""
            assert err.startswith("config error: output path is a directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["lemma9", "--p", "3", "--k", "2", "--j", "100000000"]]
        + [[name, "--p", "3", "--k", "4", "--j", j]
           for name in ("moment", "recipe") for j in ("100000000", "-100000000")]
        + [["hybrid", "--p", "3", "--k", k, "--j", j]
           for k, j in (("10", "9"), ("12", "11"))]
        + [["lemma9", "--p", "3", "--k", "1", "--A", A, "--B", B]
           for A, B in (("59000000", "1"), ("1" + "0" * 400, "1"), ("1", "1" + "0" * 400))],
        ids=lambda argv: " ".join(a if len(a) < 12 else f"1e{len(a) - 1}" for a in argv),
    )
    def test_huge_level_rejected_at_once(self, argv):
        # each formed a power of p from j before the level was checked:
        # moment died on a float modulo by 0.0 at j = 10^8, and the rest ran
        # until killed; a child, since no signal interrupts that power.  The
        # hybrid windows sum 17 grids against 13122 and 118098 members, an
        # estimated 2 minutes and 3.7 hours, and used to run until killed.
        # The lemma9 scans are as dear: 1.2e8 shifts, whose products alone
        # fit under the cap, are 1.3e9 point-terms and would hold about 13 GB
        # of arrays, and a cap of 10^400 must be priced without a float overflow
        proc = subprocess.run(
            [sys.executable, "-m", "cosetlfun.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1].startswith("error: PreconditionViolated:")

    def test_lemma9_cap_violation(self, capsys, monkeypatch):
        # 3^13 at A = B = 16 is 2.8e8 point-terms, over the work cap, and is
        # refused before any sum; 3^7, over the old fixed cap of 3^6, runs
        code, out, _ = run_cli(capsys, "lemma9", "--p", "3", "--k", "7")
        assert code == 0 and out
        monkeypatch.setattr(hybrid_module, "char_sum_S", None)
        code, out, err = run_cli(capsys, "lemma9", "--p", "3", "--k", "13")
        assert (code, out) == (2, "")
        assert err.startswith("error: PreconditionViolated:") and "point-terms" in err

    def test_hybrid_coarse_step(self, capsys):
        code, _, err = run_cli(
            capsys, "hybrid", "--p", "3", "--k", "4", "--j", "1",
            "--t-step", "0.5",
        )
        assert code == 2


class TestHappyPaths:
    def test_gauss_verify_csv(self, capsys):
        code, out, err = run_cli(capsys, "gauss-verify", "--p", "5", "--k", "2")
        assert code == 0
        assert "[ok]" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16  # primitive characters mod 25
        for r in rows:
            assert float(r["rel_err"]) <= 1e-9

    def test_gauss_verify_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "gauss-verify", "--p", "5", "--k", "2",
            "--format", "jsonl",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        for line in lines:
            row = json.loads(line)
            assert row["q"] == 25

    def test_gauss_verify_fft_within_tight_tolerance(self, capsys):
        # the FFT values sit within 1.5e-15 relative of the closed forms; an
        # indexing or conjugation slip in the transform would give about 1
        code, out, err = run_cli(
            capsys, "gauss-verify", "--p", "5", "--k", "4", "--tolerance", "1e-13"
        )
        assert code == 0, err
        assert len(out.strip().splitlines()) == 1 + 400  # header + primitive chi

    def test_tolerance_breach_fails_run(self, capsys):
        code, _, err = run_cli(
            capsys, "gauss-verify", "--p", "5", "--k", "2", "--tolerance", "1e-30"
        )
        assert code == 1
        assert "FAIL: gauss-verify" in err
        assert err.splitlines()[-1] == "gauss-verify: 16 characters checked [FAIL]"

    def test_nan_fails_the_tolerance(self, monkeypatch, capsys):
        # a NaN compares false against any tolerance, so only "not <= tol"
        # catches it; "> tol" let this run exit 0 with [ok]
        monkeypatch.setattr(
            cli_module,
            "gauss_sum_odoni",
            lambda chi: complex(math.nan, 0.0),
        )
        code, out, err = run_cli(capsys, "gauss-verify", "--p", "3", "--k", "2")
        assert code == 1
        assert "FAIL: gauss-verify" in err and "rel_err nan" in err
        assert err.splitlines()[-1] == "gauss-verify: 4 characters checked [FAIL]"
        assert out.count("nan") == 3 * 4  # closed_re, abs_err, rel_err

    def test_ratio(self, capsys):
        code, out, err = run_cli(
            capsys, "ratio", "--p", "3", "--k", "4", "--m-samples", "2"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        assert all(float(r["rel_err"]) < 1e-9 for r in rows)

    def test_ratio_odd_k(self, capsys):
        # floor-window enumeration keeps odd exponents on the proven regime
        code, _, err = run_cli(
            capsys, "ratio", "--p", "5", "--k", "3", "--m-samples", "2"
        )
        assert code == 0
        assert "[ok]" in err

    def test_coset_eps(self, capsys):
        code, out, err = run_cli(
            capsys, "coset-eps", "--p", "5", "--k", "4", "--m-samples", "3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        regimes = {r["regime"] for r in rows}
        assert regimes == {"linear", "quadratic"}

    def test_near_one(self, capsys):
        code, out, _ = run_cli(capsys, "near-one", "--p", "3", "--k", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6  # phi(9) coset members

    def test_near_one_odd_k_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "near-one", "--p", "3", "--k", "3")
        assert code == 2

    def test_recipe(self, capsys):
        code, out, _ = run_cli(
            capsys, "recipe", "--p", "3", "--k", "4", "--j", "2"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 18  # even primitive characters mod 81
        for r in rows:
            assert r["regime"] == "both"

    def test_vdc(self, capsys):
        code, out, err = run_cli(capsys, "vdc", "--trials", "25")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 25 + 3  # trials plus adversarial instances

    def test_shift_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "shift-identity", "--p", "5", "--k", "2", "--trials", "5"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # levels 0, 1, 2 each with 5 sequences
        assert len(rows) == 15

    def test_lemma9(self, capsys):
        code, out, err = run_cli(
            capsys, "lemma9", "--p", "3", "--k", "4", "--j", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["kind"] for r in rows} == {"offdiag", "zero_line"}

    def test_hybrid(self, capsys):
        code, out, _ = run_cli(
            capsys, "hybrid", "--p", "3", "--k", "4", "--j", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        drift = float(rows[0]["quadrature_drift"])
        assert drift < 0.01


class TestLemma9Warning:
    def test_warning_states_the_guard_factor(self, capsys, monkeypatch):
        # below 1 the guard fails on every massive scan; the warning must
        # name the factor the guard used
        monkeypatch.setattr(Lemma9Scan, "GUARD_FACTOR", 0.5)
        code, _, err = run_cli(capsys, "lemma9", "--p", "3", "--k", "4", "--j", "1")
        assert code == 0
        assert "exceeds 0.5x base" in err


class TestWorkingSet:
    @pytest.mark.parametrize(
        "argv, built",
        [
            (["hybrid", "--p", "3", "--k", "5", "--j", "1"], False),
            (["lemma9", "--p", "3", "--k", "5", "--j", "1"], False),
            (["moment", "--p", "3", "--k", "4", "--j", "2"], True),
            (["gauss-verify", "--p", "3", "--k", "4"], True),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_dlog_built_only_where_read(self, argv, built, capsys, monkeypatch):
        # on a fresh modulus: the L-value and character-sum paths read
        # powers only; the closed forms and logarithm parameters read dlog
        fresh = []
        monkeypatch.setattr(
            cli_module, "modulus",
            lambda p, k: fresh.append(PrimePowerModulus(p, k)) or fresh[-1],
        )
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [("dlog" in vars(m)) for m in fresh] == [built]

    def test_grid_keeps_one_modulus(self, capsys, monkeypatch):
        # the cache holds the last modulus only, so a grid releases the
        # tables of each modulus once the next one is built
        used = []
        monkeypatch.setattr(
            cli_module, "modulus",
            lambda p, k: used.append(weakref.ref(modulus(p, k))) or used[-1](),
        )
        code, _, _ = run_cli(capsys, "gauss-verify", "--p", "5", "--k", "2", "3")
        assert code == 0
        assert [ref() is None for ref in used] == [True, False]


class TestMomentCommand:
    def test_runs_and_warns_about_secondary_term(self, capsys):
        code, out, err = run_cli(
            capsys, "moment", "--p", "3", "--k", "4", "--j", "2"
        )
        assert code == 0
        assert "warning" in err  # desk-scale moduli: error term dominates
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 18
        for r in rows:
            assert r["regime"] == "both"
            res = float(r["residual"])
            emp = float(r["empirical"])
            d = float(r["D"])
            a = float(r["A"])
            assert res == pytest.approx(emp - d - a, abs=1e-9)

    def test_strict_promotes_soft_warning(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", "--p", "3", "--k", "4", "--j", "2", "--strict"
        )
        assert code == 1
        assert "[FAIL]" in err

    def test_thm12_with_small_prime_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "moment", "--p", "3", "--k", "5", "--j", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "p, k, j",
        [
            (3, 5, 3),  # thm11
            (3, 4, 2),  # both
            (5, 4, 2),  # both
            (5, 3, 1),  # thm12
            (7, 3, 1),  # thm12
        ],
    )
    def test_rows_match_per_character_reports(self, p, k, j, capsys):
        # the per-character path is the oracle for the per-coset rows
        code, out, _ = run_cli(
            capsys, "moment", "--p", str(p), "--k", str(k), "--j", str(j),
            "--format", "jsonl",
        )
        assert code == 0
        m = modulus(p, k)
        want = [
            moment_report(DirichletCharacter(m, c), j)._asdict()
            for c in even_primitive_exponents(m)
        ]
        assert out == render_rows(
            (list(want[0]), [tuple(d.values()) for d in want]), "jsonl"
        )

    def test_one_report_per_coset(self, monkeypatch, capsys):
        bases = []

        def counting(chi, j):
            bases.append(chi.c)
            return moment_report(chi, j)

        monkeypatch.setattr(cli_module, "moment_report", counting)
        code, out, _ = run_cli(
            capsys, "moment", "--p", "3", "--k", "5", "--j", "3"
        )
        assert code == 0
        evens = even_primitive_exponents(modulus(3, 5))
        assert len(out.splitlines()) == 1 + len(evens)
        cosets = {c % 9 for c in evens}  # the level-3 cosets mod 3^5
        assert len(cosets) == 6
        assert sorted(c % 9 for c in bases) == sorted(cosets)


class TestDeterminism:
    def test_moment_byte_identical_across_runs(self, tmp_path, capsys):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        for f in (f1, f2):
            code = main(
                ["moment", "--p", "5", "--k", "4", "--j", "2",
                 "--seed", "7", "--out", str(f)]
            )
            capsys.readouterr()
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_gauss_verify_deterministic_seeded(self, tmp_path, capsys):
        blobs = []
        for _ in range(2):
            f = tmp_path / "g.csv"
            code = main(
                ["gauss-verify", "--p", "7", "--k", "2", "--seed", "3",
                 "--out", str(f)]
            )
            capsys.readouterr()
            assert code == 0
            blobs.append(f.read_bytes())
        assert blobs[0] == blobs[1]

    def test_float_formatting_roundtrips(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", "--p", "3", "--k", "4", "--j", "2"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            # 17 significant digits reproduce the double exactly
            v = float(r["empirical"])
            assert format(v, ".17g") == r["empirical"]


class TestReportWrite:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_stdout_and_out_carry_the_same_bytes(self, fmt, tmp_path, monkeypatch, capsys):
        # 2,916 rows, 397,465 bytes in CSV: the report spans more than four
        # 64 KiB slices, and is rendered and written in 12 blocks
        argv = ["gauss-verify", "--p", "3", "--k", "8", "--format", fmt]
        texts = []

        def keep(table, fmt):
            texts.append(render_rows(table, fmt))
            return texts[-1]

        monkeypatch.setattr(cli_module, "render_rows", keep)
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(texts) == 2916 // BLOCK + 1
        assert all(type(text) is str for text in texts)
        size = sum(len(text.encode("utf-8")) for text in texts)
        assert size == out.stat().st_size > 4 * 2**16
        assert "".join(texts).encode("utf-8") == out.read_bytes()
        script = "import sys; from cosetlfun.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = run_child(script, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()


class TestReportBlocks:
    """A report rendered one block at a time as its rows arrive is one
    render_rows of all its rows, and its tolerance failures follow the
    handler's own, in row order."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_blocks_join_to_one_rendering(self, n, fmt, monkeypatch, capsys):
        # rel_err NaN at c = 0, 97, 194 (first block) and 291, 388, 485
        # (second); a NaN and an inf in the second block redo it from JSON text
        rows = [
            (5, 2, 25, c, complex(c, -c / 3), complex(0.5, c), c / 7, 0.0 if c % 97 else math.nan)
            for c in range(n)
        ]
        if n > 300:
            rows[300] = (5, 2, 25, 300, complex(math.inf, 1.0), 1j, math.nan, 0.0)
        tables = []

        def handler(args, m, res):
            for row in rows:
                res.add(*row)
            res.hard_failures.append("the handler's own")

        def keep(table, fmt):
            tables.append(table)
            return render_rows(table, fmt)

        monkeypatch.setitem(cli_module.HANDLERS, "gauss-verify", handler)
        monkeypatch.setattr(cli_module, "render_rows", keep)
        code, out, err = run_cli(capsys, "gauss-verify", "--p", "5", "--k", "2", "--format", fmt)
        assert code == 1
        keys = cli_module.SPECS["gauss-verify"].keys
        assert out == render_rows((keys, rows), fmt)
        # one call per full block, and one for the rest (empty at n = 256)
        assert [len(block) for _, block in tables] == [BLOCK] * (n // BLOCK) + [n % BLOCK]
        assert [row for _, block in tables for row in block] == rows
        assert [line for line in err.splitlines() if line.startswith("FAIL")] == [
            "FAIL: the handler's own",
            *(
                f"FAIL: gauss-verify p=5 k=2 q=25 chi_exponent={c}: rel_err nan > 1.0e-09"
                for c in range(0, n, 97)
            ),
        ]
        assert err.splitlines()[-1] == f"gauss-verify: {n} characters checked [FAIL]"


class TestReportSpool:
    """The rendered blocks wait in an unnamed temporary file, under
    tempfile's directory, until every handler has returned; a run that
    fails writes no report and leaves no file behind."""

    @pytest.fixture
    def spool_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "spool"
        monkeypatch.setattr(tempfile, "tempdir", str(path))
        return path

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failure_after_a_spooled_block_writes_nothing(
        self, to_file, spool_dir, tmp_path, monkeypatch, capsys
    ):
        spool_dir.mkdir()
        runs = []

        def handler(args, m, res):
            runs.append(res)
            for c in range(300):
                res.add(5, 2, 25, c, 1j, 1j, 0.0, 0.0)
            assert res.count == BLOCK and res.spool is not None
            raise PreconditionViolated("after one spooled block")

        monkeypatch.setitem(cli_module.HANDLERS, "gauss-verify", handler)
        report = tmp_path / "report"
        argv = ["gauss-verify", "--p", "5", "--k", "2"] + (["--out", str(report)] if to_file else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: PreconditionViolated: after one spooled block\n"
        assert not report.exists()
        assert list(spool_dir.iterdir()) == []
        assert runs[0].spool.closed

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("k", ["2", "4"])  # 20 rows, and 500 (a block in the handler)
    def test_missing_temp_directory_is_an_error(self, k, to_file, spool_dir, tmp_path, capsys):
        report = tmp_path / "report"
        argv = ["gauss-verify", "--p", "5", "--k", k] + (["--out", str(report)] if to_file else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1
        assert not report.exists()
        assert not spool_dir.exists()


class TestReportMemory:
    # tracemalloc peak of a gauss-verify run over the CSV bytes it writes,
    # the modulus tables included (the cache is cleared first).  With rows
    # held as dicts of [re, im] lists and rendered by csv.writer it read
    # 7.3-7.5x at 5^6 (7.8x at 3^8, outside pytest); as value tuples
    # rendered through one template per row signature and joined from
    # 4096-row blocks, 4.6x at 5^6 and 4.5x at 3^10.  Grown as one str from
    # 256-row blocks, with the rows freed before a write in slices, 3.65x
    # at 5^6 and 3.50x at 3^10.  Rendered one 256-row block at a time as
    # the rows arrive, each block's rows then dropped, 2.37x and 2.14x.
    # With each block written to a temporary file as it is rendered, and
    # the exponents iterated rather than listed, 1.05x and 0.93x.
    def peak_per_byte(self, p, k, tmp_path, capsys) -> float:
        out = tmp_path / "g.csv"
        modular_module.modulus.cache_clear()
        tracemalloc.start()
        try:
            code = main(["gauss-verify", "--p", str(p), "--k", str(k), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        return peak / out.stat().st_size

    def test_peak_per_report_byte(self, tmp_path, capsys):
        # 10,000 rows, 1,382,774 bytes
        assert self.peak_per_byte(5, 6, tmp_path, capsys) < 1.3

    def test_peak_per_report_byte_at_3_10(self, tmp_path, capsys):
        # 26,244 rows, 3,669,203 bytes: the report outweighs the tables
        assert self.peak_per_byte(3, 10, tmp_path, capsys) < 1.2


class TestSeededStream:
    def rows(self, capsys, *ks):
        code, out, _ = run_cli(
            capsys, "coset-eps", "--p", "5", "--k", *ks, "--seed", "3"
        )
        assert code == 0
        return list(csv.DictReader(io.StringIO(out)))

    def test_one_stream_across_the_grid(self, capsys):
        # the k = 4 modulus draws where the k = 3 one stopped, not from a
        # freshly seeded stream
        both = self.rows(capsys, "3", "4")
        assert [r for r in both if r["k"] == "3"] == self.rows(capsys, "3")
        assert [r for r in both if r["k"] == "4"] != self.rows(capsys, "4")

    def test_no_generator_without_draws(self):
        # numpy.random, with the hashlib and OpenSSL that secrets pulls in,
        # costs about 6 MiB: no subcommand loads it, and only the four that
        # sample load the in-package stream
        runs = [
            ["moment", "--p", "5", "--k", "4", "--j", "2"],
            ["gauss-verify", "--p", "5", "--k", "2"],
            ["hybrid", "--p", "3", "--k", "4", "--j", "1"],
            ["lemma9", "--p", "3", "--k", "4", "--j", "1"],
            ["near-one", "--p", "3", "--k", "4"],
            ["recipe", "--p", "5", "--k", "4", "--j", "2"],
            ["coset-eps", "--p", "5", "--k", "3", "--m-samples", "2"],
            ["ratio", "--p", "5", "--k", "3", "--m-samples", "2"],
            ["shift-identity", "--p", "3", "--k", "3", "--trials", "2"],
            ["vdc", "--trials", "1"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from cosetlfun.cli import main\n"
            "out = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    names = ('numpy.random', 'hashlib', 'secrets', 'cosetlfun.seeded')\n"
            "    out.append([status, [n for n in names if n in sys.modules]])\n"
            "print(json.dumps(out))\n"
        )
        proc = run_child(script)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert all(status in (0, 1) for status, _ in got), got
        assert [loaded for _, loaded in got] == [[]] * 6 + [["cosetlfun.seeded"]] * 4

    def test_no_fractions_in_a_child(self):
        # the Bernoulli numbers are exact integers over one denominator, so a
        # child that uses them imports neither fractions nor decimal
        # (0.3-0.4 MiB); the cache shows that this run computed them
        script = (
            "import contextlib, io, sys\n"
            "from cosetlfun import lcentral\n"
            "from cosetlfun.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(status, lcentral._bernoulli_numerators.cache_info().currsize,\n"
            "      sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        )
        proc = run_child(script, "moment", "--p", "5", "--k", "4", "--j", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"0 1 []\n"
