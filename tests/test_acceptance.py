"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line (visible under -s, and in the captured
output on failure) and then asserts.  Grids, tolerances and seeds are fixed;
no test depends on another.
"""

import math

import numpy as np
import pytest

from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    even_primitive_exponents,
    primitive_exponents,
)
from cosetlfun.cli import main as cli_main
from cosetlfun.errors import UnsupportedRegime
from cosetlfun.gauss import (
    coset_epsilon_average,
    coset_epsilon_average_closed,
    eps_regimes,
    gauss_ratio_check,
    gauss_sum_brute,
    gauss_sum_odoni,
    near_one_root_number_check,
)
from cosetlfun.hybrid import hybrid_moment_quadrature, lemma9_scan
from cosetlfun.lcentral import functional_equation_residual
from cosetlfun.modular import is_prime, modulus, sample_units
from cosetlfun.report import rel_err
from cosetlfun.moments import (
    moment_report,
    predict_A,
    predict_A_prime,
    recipe_params,
)
from cosetlfun.vdc import (
    FiniteSequence,
    amplified_l2_identity,
    coset_shift_identity,
    random_sequence,
    vdc_inequality_check,
)


def report_line(num, slug, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[criterion {num:02d}] {slug}: {tag}{suffix}")


def test_criterion_01_gauss_magnitude():
    rng = np.random.default_rng(0)
    grids = []
    for p in (3, 5, 7, 11):
        k = 1
        while p**k <= 2500:
            grids.append((p, k))
            k += 1
    worst = 0.0
    checked = 0
    for p, k in grids:
        m = modulus(p, k)
        twists = sample_units(rng, m.q, p, 5)
        for c in primitive_exponents(m):
            chi = DirichletCharacter(m, c)
            for tw in twists:
                tau = gauss_sum_brute(chi, tw)
                err = abs(abs(tau) ** 2 - m.q)
                worst = max(worst, err / m.q)
                checked += 1
    ok = worst < 1e-6
    report_line(1, "gauss-magnitude", ok,
                f"{checked} sums over {len(grids)} moduli, "
                f"worst |.|^2 deviation {worst:.3e} * q")
    assert ok


def test_criterion_02_odoni_closed_forms():
    worst = 0.0
    checked = 0
    for p, k in ((3, 2), (3, 4), (5, 2), (5, 3), (5, 4), (5, 5), (7, 2), (7, 3)):
        m = modulus(p, k)
        for c in primitive_exponents(m):
            chi = DirichletCharacter(m, c)
            closed = gauss_sum_odoni(chi)
            brute = gauss_sum_brute(chi)
            rel = abs(closed - brute) / abs(brute)
            worst = max(worst, rel)
            checked += 1
    with pytest.raises(UnsupportedRegime):
        gauss_sum_odoni(DirichletCharacter(modulus(3, 3), 1))
    ok = worst < 1e-9
    report_line(2, "odoni-closed-forms", ok,
                f"{checked} characters, worst rel err {worst:.3e}; "
                "p=3 odd-k guard raised")
    assert ok


def test_criterion_03_gauss_ratio():
    rng = np.random.default_rng(0)
    m = modulus(3, 4)
    twists = sample_units(rng, m.q, 3, 10)
    worst = 0.0
    pairs = 0
    for c1 in primitive_exponents(m):
        chi1 = DirichletCharacter(m, c1)
        for d in range(0, m.phi, 9):
            c2 = (c1 - d) % m.phi
            if c2 == 0 or c2 % 3 == 0:
                continue
            chi2 = DirichletCharacter(m, c2)
            pairs += 1
            for tw in twists:
                brute, closed = gauss_ratio_check(chi1, chi2, tw)
                worst = max(worst, abs(brute - closed))
    ok = worst < 1e-9
    report_line(3, "gauss-ratio", ok,
                f"{pairs} pairs x 10 twists at q=81, worst residual {worst:.3e}")
    assert ok


def test_criterion_04_coset_epsilon_averages():
    rng = np.random.default_rng(0)
    worst = 0.0
    instances = 0
    for p in (3, 5, 7):
        for k in range(2, 6):
            m = modulus(p, k)
            for j in range(1, k):
                regimes = eps_regimes(p, k, j)
                if p == 3:
                    regimes = [r for r in regimes if r == "linear"]
                if not regimes:
                    continue
                for c in even_primitive_exponents(m)[:2]:
                    spec = CosetSpec(DirichletCharacter(m, c), j, "even")
                    instances += 1
                    twists = sample_units(rng, m.q, p, 20)
                    averages = coset_epsilon_average(spec, twists)
                    for tw, brute in zip(twists, averages):
                        for regime in regimes:
                            closed = coset_epsilon_average_closed(
                                spec, tw, regime
                            )
                            worst = max(worst, abs(brute - closed))
    ok = worst < 1e-9
    report_line(4, "coset-epsilon-averages", ok,
                f"{instances} cosets x 20 twists, worst abs err {worst:.3e}")
    assert ok


def test_criterion_05_near_one_root_number():
    worst = 0.0
    members = 0
    for p, k in ((3, 4), (5, 4)):
        triples = near_one_root_number_check(modulus(p, k))
        worst = max(worst, *(rel_err(b, c) for _, b, c in triples))
        members += len(triples)
    ok = worst < 1e-9
    report_line(5, "near-one-root-number", ok,
                f"{members} coset members at q in (81, 625), "
                f"worst rel err {worst:.3e}")
    assert ok


def test_criterion_06_functional_equation():
    worst = 0.0
    checked = 0
    for p in range(3, 244, 2):
        if not is_prime(p):
            continue
        k = 1
        while p**k <= 243:
            m = modulus(p, k)
            for c in even_primitive_exponents(m):
                chi = DirichletCharacter(m, c)
                worst = max(worst, functional_equation_residual(chi))
                checked += 1
            k += 1
    rng = np.random.default_rng(0)
    m6 = modulus(5, 6)
    evens = even_primitive_exponents(m6)
    for i in rng.choice(len(evens), size=50, replace=False):
        chi = DirichletCharacter(m6, evens[int(i)])
        worst = max(worst, functional_equation_residual(chi))
        checked += 1
    ok = worst < 1e-8
    report_line(6, "functional-equation", ok,
                f"{checked} characters (all even primitive q <= 243, "
                f"50 sampled at 5^6), worst residual {worst:.3e}")
    assert ok


def test_criterion_07_moment_improvement_property():
    # The secondary-term improvement |emp - D - A| < |emp - D| and the
    # cross-q trend are asserted exactly as stated.  At these desk-scale
    # moduli the window error term (of size error_scale) carries a constant
    # near 1.2 and dominates A/2, so the property is expected to fail; the
    # assertion message carries the measured table.
    grids = ((3, 4, 2), (3, 5, 3), (5, 4, 2), (5, 6, 3))
    violations = []
    checked = 0
    lines = []
    scaled_by_q = {}
    for p, k, j in grids:
        m = modulus(p, k)
        seen_cosets = {}
        for c in even_primitive_exponents(m):
            chi = DirichletCharacter(m, c)
            params = recipe_params(chi, j)
            if abs(params.a_chi) > 2:
                continue
            key = params.ell % p ** (k - j)
            if key not in seen_cosets:
                seen_cosets[key] = moment_report(chi, j)
            row = seen_cosets[key]
            checked += 1
            if not abs(row.residual) < abs(row.baseline_residual):
                violations.append((m.q, j, params.a_chi, chi.c))
        for _, row in sorted(seen_cosets.items()):
            lines.append(
                f"  q={row.q} j={j} a={row.a_chi:+d}: "
                f"emp-D={row.baseline_residual:+.4f} A={row.A:+.4f} "
                f"emp-D-A={row.residual:+.4f} scale={row.error_scale:.4f}"
            )
            scaled_by_q.setdefault(row.q, []).append(
                abs(row.residual) / row.error_scale
            )
    mean_small = float(np.mean(scaled_by_q[3**4]))
    mean_large = float(np.mean(scaled_by_q[5**6]))
    trend_ok = mean_large < mean_small
    ok = not violations and trend_ok
    report_line(
        7, "moment-improvement", ok,
        f"{len(violations)} of {checked} characters violate the improvement; "
        f"mean |residual|/scale {mean_small:.2f} at 3^4 vs "
        f"{mean_large:.2f} at 5^6"
    )
    table = "\n".join(lines)
    print(table)
    assert ok, (
        "secondary term does not beat the baseline at desk-scale moduli "
        f"({len(violations)} of {checked} characters violate; scaled-residual "
        f"trend {mean_small:.2f} -> {mean_large:.2f} is not decreasing):\n"
        + table
    )


def test_criterion_08_k_equals_2j_bitwise():
    m = modulus(5, 4)
    mismatches = 0
    checked = 0
    for c in even_primitive_exponents(m):
        chi = DirichletCharacter(m, c)
        if predict_A(chi, 2) != predict_A_prime(chi, 2):
            mismatches += 1
        checked += 1
    ok = mismatches == 0
    report_line(8, "k-eq-2j-bitwise", ok,
                f"{checked} characters at q=625, {mismatches} A != A'")
    assert ok


def test_criterion_09_van_der_corput():
    rng = np.random.default_rng(0)
    worst_slack = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        h_bound = int(rng.integers(1, n + 1))
        a = random_sequence(n, rng)
        lhs, rhs = vdc_inequality_check(a, h_bound)
        worst_slack = max(worst_slack, lhs - rhs * (1 + 1e-12) - 1e-9)
    adversarial = (
        (FiniteSequence(1, (1.0,) * 120), 12),
        (FiniteSequence(1, tuple((-1.0) ** i for i in range(121))), 9),
        (FiniteSequence(1, (0.0,) * 17 + (1.0,) + (0.0,) * 46), 8),
    )
    for a, h_bound in adversarial:
        lhs, rhs = vdc_inequality_check(a, h_bound)
        worst_slack = max(worst_slack, lhs - rhs * (1 + 1e-12) - 1e-9)
    inequality_ok = worst_slack <= 0.0

    worst_parseval = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 151))
        h_len = int(rng.integers(1, 40))
        a = random_sequence(n, rng)
        lhs, rhs = amplified_l2_identity(a, h_len)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / (1 + abs(lhs)))
    parseval_ok = worst_parseval < 1e-9

    worst_shift = 0.0
    for p, k in ((3, 3), (5, 2)):
        chi = DirichletCharacter(modulus(p, k), 1)
        for j in (0, 1, 2):
            for _ in range(100):
                a = random_sequence(int(rng.integers(1, 120)), rng)
                lhs, rhs = coset_shift_identity(a, chi, j)
                worst_shift = max(worst_shift, abs(lhs - rhs) / (1 + abs(lhs)))
    shift_ok = worst_shift < 1e-8

    ok = inequality_ok and parseval_ok and shift_ok
    report_line(
        9, "van-der-corput", ok,
        f"inequality slack {worst_slack:.2e}; Parseval rel {worst_parseval:.2e}; "
        f"coset shift rel {worst_shift:.2e}"
    )
    assert ok


def test_criterion_10_hybrid_scans():
    guards = []
    for k in (4, 5, 6):
        scan = lemma9_scan(modulus(3, k), 1, 16, 16)
        guards.append((3**k, scan.soft_guard_ok(), scan.max_ratio,
                       scan.base_ratio))
    guard_ok = all(g[1] for g in guards)

    chi = DirichletCharacter(modulus(3, 4), 1)
    coarse = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.25)
    fine = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.125)
    drift = abs(coarse.lhs - fine.lhs) / abs(fine.lhs)
    quad_ok = math.isfinite(coarse.ratio) and drift < 0.01

    ok = guard_ok and quad_ok
    detail = "; ".join(
        f"q={q}: max/base={mx / base:.2f}" if base else f"q={q}: vacuous"
        for q, _, mx, base in guards
    )
    report_line(10, "hybrid-scans", ok,
                f"soft guards [{detail}]; quadrature drift {drift:.2e}")
    assert ok


def test_criterion_11_cli_determinism(tmp_path, capsys):
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli_main(
            ["moment", "--p", "5", "--k", "4", "--j", "2",
             "--seed", "7", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    report_line(11, "cli-determinism", ok,
                f"two runs, {len(blobs[0])} bytes each, byte-identical={ok}")
    assert ok
