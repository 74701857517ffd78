import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlfun.characters import CosetSpec, DirichletCharacter, enumerate_coset
from cosetlfun.errors import (
    InvalidModulus, NotPrimitive, PreconditionViolated, QuadratureTooCoarse,
)
import cosetlfun.hybrid as hybrid_module
import cosetlfun.modular as modular_module
from cosetlfun.hybrid import (
    Lemma9Scan,
    char_sum_S,
    hybrid_moment_quadrature,
    lemma9_scan,
)
from cosetlfun.lcentral import l_value
from cosetlfun.modular import BLOCK, modulus
from oracles import char_sum_S_oracle, lemma9_fold_oracle


def brute_S(chi, h, j, n):
    q = chi.modulus.q
    q0 = chi.modulus.p**j
    total = 0j
    for alpha in range(q):
        total += (
            chi(alpha + h * q0)
            * complex(chi(alpha)).conjugate()
            * cmath.exp(2j * cmath.pi * ((alpha * n) % q) / q)
        )
    return total


def assert_fold_matches_oracle(scan, chi, j, A, B):
    # the hypot fold gives the per-row Python abs fold's sums bit for bit,
    # the structural-zero noise cells included
    abs_s, zero_col = lemma9_fold_oracle(chi, j, A, B)
    for row in scan.rows:
        if row["kind"] == "zero_line":
            assert row["sum_S"] == float(zero_col[: row["A"]].sum())
        else:
            assert row["sum_S"] == float(abs_s[: row["A"], : 2 * row["B"]].sum())


class TestCharSumS:
    def test_matches_brute(self):
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 1)
        for h in (-2, 0, 1, 3):
            for j in (0, 1, 2):
                freqs = (-4, 0, 1, 9, 13)
                for n, got in zip(freqs, char_sum_S(chi, [h], j, freqs)[0]):
                    want = brute_S(chi, h, j, n)
                    assert abs(got - want) < 1e-10, (h, j, n)

    def test_trivial_shift_zero_frequency(self):
        # h = 0, n = 0: the sum counts units
        m = modulus(5, 2)
        chi = DirichletCharacter(m, 3)
        assert char_sum_S(chi, [0], 1, [0])[0][0] == pytest.approx(m.phi)

    def test_ramanujan_collapse(self):
        # h = 0, unit n, k >= 2: sum over units of e_q(alpha n) vanishes
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 1)
        for s in char_sum_S(chi, [0], 1, (1, 2, 5))[0]:
            assert abs(s) < 1e-10
        # k = 1 instead gives the -1 of the Moebius function
        m1 = modulus(7, 1)
        chi1 = DirichletCharacter(m1, 2)
        assert char_sum_S(chi1, [0], 0, [3])[0][0] == pytest.approx(-1.0, abs=1e-10)

    def test_structural_zero_off_multiples_of_q0(self):
        # the weight depends on alpha only mod q/q0, so S = 0 unless q0 | n
        m = modulus(3, 5)
        chi = DirichletCharacter(m, 1)
        for j in (1, 2):
            q0 = 3**j
            for n, s in enumerate(char_sum_S(chi, [2], j, range(1, 30))[0], 1):
                if n % q0 != 0:
                    assert abs(s) < 1e-9, (j, n)

    def test_massive_cells_exist_on_multiples(self):
        m = modulus(3, 5)
        chi = DirichletCharacter(m, 1)
        assert abs(char_sum_S(chi, [1], 1, [3])[0][0]) > 1.0

    def test_periodicity_in_n(self):
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 1)
        for n in (1, 5, 27):
            a = char_sum_S(chi, [1], 2, [n])[0][0]
            b = char_sum_S(chi, [1], 2, [n + m.q])[0][0]
            assert a == b  # n is reduced mod q before any float math

    def test_conjugate_character_reflects_frequency(self):
        m = modulus(5, 3)
        chi = DirichletCharacter(m, 7)
        for h, n in ((1, 5), (2, 10), (3, 0)):
            lhs = char_sum_S(chi.conjugate(), [h], 1, [n])[0][0]
            rhs = complex(char_sum_S(chi, [h], 1, [-n])[0][0]).conjugate()
            assert abs(lhs - rhs) < 1e-10

    def test_level_bounds(self):
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 1)
        with pytest.raises(PreconditionViolated):
            char_sum_S(chi, [1], 4, [1])
        with pytest.raises(PreconditionViolated):
            char_sum_S(chi, [1], -1, [1])

    def test_lemma9_scan_calls_once_per_scan(self, monkeypatch):
        calls = []

        def counting(chi, hs, j, freqs):
            calls.append(list(hs))
            return char_sum_S(chi, hs, j, freqs)

        monkeypatch.setattr(hybrid_module, "char_sum_S", counting)
        lemma9_scan(modulus(3, 4), 1, 4, 3)
        assert calls == [[1, -1, 2, -2, 3, -3, 4, -4]]

    @given(
        pk=st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]),
        c=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_rows_match_per_shift_oracle_bitwise(self, pk, c, data):
        m = modulus(*pk)
        q = m.q
        chi = DirichletCharacter(m, c)
        j = data.draw(st.integers(0, m.k))
        hs = data.draw(st.lists(st.integers(-2 * q, 2 * q), max_size=6))
        # at q <= 27 a few thousand shifts span many blocks of shifts
        extra = data.draw(st.integers(0, 4000 if q <= 27 else 0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        hs += rng.integers(-2 * q, 2 * q + 1, extra).tolist()
        freqs = data.draw(st.lists(st.integers(-2 * q, 2 * q), max_size=8))
        freqs += [0, q, -q]
        got = char_sum_S(chi, hs, j, freqs)
        assert got.shape == (len(hs), len(freqs))
        oracle = {h: np.array(char_sum_S_oracle(chi, h, j, freqs)) for h in set(hs)}
        for row, h in zip(got, hs):
            np.testing.assert_array_equal(
                row.view(np.float64), oracle[h].view(np.float64)
            )

    def test_one_shift_blocks_match_oracle_bitwise(self):
        # 33 frequencies at 3^8 make a shift's products 33 * 6561 > BLOCK
        # elements, so every block holds one shift
        m = modulus(3, 8)
        chi = DirichletCharacter(m, 5)
        hs, freqs = [1, -1, 2, 3**7], list(range(-16, 17))
        assert len(freqs) * m.q > BLOCK
        for j in (1, 2):
            for row, h in zip(char_sum_S(chi, hs, j, freqs), hs):
                want = np.array(char_sum_S_oracle(chi, h, j, freqs))
                np.testing.assert_array_equal(
                    row.view(np.float64), want.view(np.float64)
                )


class TestScanGrid:
    """Level, shift/frequency caps and time window, each checked by the
    scan that reads it."""

    def test_valid(self):
        m = modulus(3, 4)
        assert {r["q0"] for r in lemma9_scan(m, 1, 4, 4).rows} == {3}
        chi = DirichletCharacter(m, 1)
        assert hybrid_moment_quadrature(chi, 1) == hybrid_moment_quadrature(
            chi, 1, T=10.0, T0=2.0, t_step=0.25
        )

    def test_rejects_bad_level(self):
        m = modulus(3, 4)
        with pytest.raises(PreconditionViolated):
            lemma9_scan(m, 5, 4, 4)
        with pytest.raises(PreconditionViolated):
            hybrid_moment_quadrature(DirichletCharacter(m, 1), 5)

    def test_rejects_bad_caps(self):
        with pytest.raises(PreconditionViolated):
            lemma9_scan(modulus(3, 4), 1, 0, 4)
        with pytest.raises(PreconditionViolated):
            lemma9_scan(modulus(3, 4), 1, 4, -2)

    def test_rejects_bad_window(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        with pytest.raises(PreconditionViolated):
            hybrid_moment_quadrature(chi, 1, T0=0.0)
        with pytest.raises(PreconditionViolated):
            hybrid_moment_quadrature(chi, 1, t_step=0.0)

    def test_rejects_coarse_step(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        with pytest.raises(QuadratureTooCoarse):
            hybrid_moment_quadrature(chi, 1, T0=2.0, t_step=0.5)


class TestLemma9Scan:
    def test_row_schema_and_count(self):
        scan = lemma9_scan(modulus(3, 4), 1, 4, 4)
        offdiag = [r for r in scan.rows if r["kind"] == "offdiag"]
        zero = [r for r in scan.rows if r["kind"] == "zero_line"]
        assert len(offdiag) == 3 * 3  # doubling caps 1, 2, 4 each way
        assert len(zero) == 3
        for r in scan.rows:
            assert r["q"] == 81 and r["q0"] == 3
            assert r["envelope"] > 0
            assert r["ratio"] == pytest.approx(r["sum_S"] / r["envelope"])

    def test_cell_mass_matches_direct_sum(self):
        # 3^7 was over the old fixed cap of 3^6; it is priced by its work now
        for k, A, B in ((3, 2, 4), (7, 1, 4)):
            scan = lemma9_scan(modulus(3, k), 1, A, B)
            chi = DirichletCharacter(modulus(3, k), 1)
            assert_fold_matches_oracle(scan, chi, 1, A, B)
            for row in scan.rows:
                if row["kind"] != "offdiag":
                    continue
                want = 0.0
                for h in range(1, row["A"] + 1):
                    for n in range(1, row["B"] + 1):
                        for sh, sn in ((h, n), (h, -n), (-h, n), (-h, -n)):
                            want += abs(brute_S(chi, sh, 1, sn))
                assert row["sum_S"] == pytest.approx(want, abs=1e-8)

    def test_fold_keeps_bits_on_long_slices(self):
        # the (2048, 8) cell sums 32768 values, past the 8192 that numpy
        # buffers at a time from a strided slice, so a non-contiguous abs_s
        # would sum it in a different order
        m = modulus(3, 3)
        scan = lemma9_scan(m, 1, 2048, 8)
        assert_fold_matches_oracle(scan, DirichletCharacter(m, 1), 1, 2048, 8)

    def test_zero_line_matches_direct_sum(self):
        scan = lemma9_scan(modulus(3, 3), 1, 2, 2)
        chi = DirichletCharacter(modulus(3, 3), 1)
        for row in scan.rows:
            if row["kind"] != "zero_line":
                continue
            want = sum(
                abs(brute_S(chi, sh, 1, 0))
                for h in range(1, row["A"] + 1)
                for sh in (h, -h)
            )
            assert row["sum_S"] == pytest.approx(want, abs=1e-8)
            assert row["envelope"] == pytest.approx(3 * row["A"])

    def test_guard_holds_at_level_one(self):
        for k in (4, 5):
            scan = lemma9_scan(modulus(3, k), 1, 16, 16)
            assert scan.base_ratio > 0
            assert scan.soft_guard_ok()

    def test_vacuous_pass_when_no_cell_is_massive(self):
        # j = 2 at q = 243 with B < 9: no scanned n is a multiple of q0,
        # every cell is a structural zero, and the guard must not divide
        # by a noise-level base cell
        scan = lemma9_scan(modulus(3, 5), 2, 8, 8)
        offdiag = [r["sum_S"] for r in scan.rows if r["kind"] == "offdiag"]
        assert max(offdiag) <= scan.noise_floor
        assert scan.base_ratio == 0.0
        assert scan.soft_guard_ok()

    def test_caps_enforced(self, monkeypatch):
        # a scan is priced by the array elements it touches: its phase rows,
        # weight rows, products and cells, so the cap bounds each alone: at
        # q = 81 and B = 1 it admits A <= 1100143 (3.6 s), and at q = 3
        # A = 59000000, whose products alone fit, is refused for its 3.5e8
        # cells; at A = B = 16, 3^12 (9.2e7 point-terms, 4.2 s) fits and 3^13
        # (2.8e8) does not; caps past the float range are priced exactly.
        # Each is refused before char_sum_S.
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(hybrid_module, "char_sum_S", reached)
        refused = (
            (13, 16, 16), (4, 1100144, 1), (4, 1, 2**40), (1, 59000000, 1),
            (1, 10**400, 1), (1, 1, 10**400),
        )
        for k, A, B in refused:
            with pytest.raises(PreconditionViolated, match="point-terms"):
                lemma9_scan(modulus(3, k), 1, A, B)
        for k, A, B in ((12, 16, 16), (4, 117941, 1), (4, 1100143, 1)):
            with pytest.raises(Reached):
                lemma9_scan(modulus(3, k), 1, A, B)
        # the arrays are priced too: at 3^4, A = 1000 and B = 16 hold about
        # 2.3 MB, of which the phase rows are 43 kB and one block 131 kB
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 10**6)
        with pytest.raises(InvalidModulus, match="the arrays of a scan"):
            lemma9_scan(modulus(3, 4), 1, 1000, 16)
        with pytest.raises(Reached):
            lemma9_scan(modulus(3, 4), 1, 1, 16)

    def test_guard_factor_sensitivity(self):
        scan = lemma9_scan(modulus(3, 4), 1, 16, 16)
        assert scan.base_ratio > 0
        scan.max_ratio = 3 * scan.base_ratio
        assert scan.soft_guard_ok()
        scan.max_ratio = 3.001 * scan.base_ratio
        assert not scan.soft_guard_ok()


class TestHybridQuadrature:
    def test_basic_run(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        out = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.25)
        assert out.samples == 9
        assert out.lhs > 0
        assert out.ratio == pytest.approx(out.lhs / out.envelope)

    def test_envelope_formula(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        out = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.25)
        want = (2.0 + 2.0**-0.5 * math.sqrt(10.0)) * (3 + 3**-0.5 * 9.0)
        assert out.envelope == pytest.approx(want, rel=1e-13)

    def test_step_halving_converges(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        coarse = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.25)
        fine = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.125)
        assert abs(coarse.lhs - fine.lhs) < 0.01 * abs(fine.lhs)

    def test_rejects_window_past_T(self):
        chi = DirichletCharacter(modulus(3, 4), 1)
        with pytest.raises(PreconditionViolated):
            hybrid_moment_quadrature(chi, 1, T=1.0, T0=2.0, t_step=0.25)

    @pytest.mark.parametrize(
        "k,j,T,T0,t_step",
        [
            (4, 1, 1.0, 2.0, 0.25),
            (4, 1, 10.0, 2.0, 1e-9),
            (4, 1, 10.0, 2.0, 1e-320),
            (4, 1, 1e308, 1e308, 0.25),
            (4, 1, math.inf, math.inf, 0.25),
            (4, 1, math.nan, 2.0, 0.25),
            # 1.7e308 samples: their exact int price is past the float range
            (4, 1, 10.0, 2.0, 1.2e-308),
            # 17 grids of 3^10 points fit under the cap; their sums against
            # 13122 members (1.3e10 products) do not
            (10, 9, 10.0, 2.0, 0.25),
        ],
        ids=[
            "window-past-T", "window-over-work-cap", "step-count-overflows",
            "window-end-overflows", "infinite-window", "nan-start",
            "step-count-past-float",
            "coset-sums-over-work-cap",
        ],
    )
    def test_refuses_before_enumerating_the_coset(self, k, j, T, T0, t_step, monkeypatch):
        def unreachable(spec):
            raise AssertionError("coset enumerated before the window was checked")

        monkeypatch.setattr(hybrid_module, "enumerate_coset", unreachable)
        chi = DirichletCharacter(modulus(3, k), 1)
        with pytest.raises(PreconditionViolated):
            hybrid_moment_quadrature(chi, j, T=T, T0=T0, t_step=t_step)

    def test_coset_sums_priced_at_their_edge(self, monkeypatch):
        # at an eighth of a point-term a product, 2^30 products fit: 17
        # samples of 3^10 points against 486 members (j = 6) but not 1458
        class Reached(Exception):
            pass

        def reached(spec):
            raise Reached

        monkeypatch.setattr(hybrid_module, "enumerate_coset", reached)
        chi = DirichletCharacter(modulus(3, 10), 1)
        with pytest.raises(Reached):
            hybrid_moment_quadrature(chi, 6)
        with pytest.raises(PreconditionViolated, match="coset sums"):
            hybrid_moment_quadrature(chi, 7)

    def test_rejects_imprimitive_base(self):
        with pytest.raises(NotPrimitive):
            hybrid_moment_quadrature(DirichletCharacter(modulus(3, 4), 3), 1)

    def test_halved_step_on_non_nesting_step(self):
        # T0/t_step = 8.33: the lhs grid has num = 9 steps, and halving the
        # step gives 17 where splitting every step gives 18
        chi = DirichletCharacter(modulus(3, 4), 1)
        out = hybrid_moment_quadrature(chi, 1, T=10.0, T0=2.0, t_step=0.24)
        members = enumerate_coset(CosetSpec(chi, 1, "all"))
        ts = 10.0 + np.arange(19) * (2.0 / 18)
        ys = [sum(abs(l_value(eta, t).value) ** 2 for eta in members) for t in ts]
        assert out.samples == 10
        assert out.lhs == pytest.approx(np.trapezoid(ys[::2], ts[::2]), rel=1e-12)
        assert out.halved_step_lhs == pytest.approx(np.trapezoid(ys, ts), rel=1e-12)
