import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlfun import modular, vdc
from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    enumerate_coset,
    primitive_exponents,
)
from cosetlfun.errors import BadShiftBound, PreconditionViolated
from cosetlfun.modular import modulus
from cosetlfun.vdc import (
    FiniteSequence,
    amplified_l2_identity,
    coset_shift_identity,
    random_sequence,
    twisted_sum,
    vdc_inequality_check,
)
from oracles import (
    character_rows_oracle,
    coset_mean_square,
    dirichlet_kernel,
    shifted_autocorrelation,
    twisted_sum_oracle,
)

complex_coeffs = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)).map(lambda t: complex(*t)),
    min_size=1,
    max_size=40,
)


def brute_autocorrelation(a: FiniteSequence, h: int) -> complex:
    """O(N^2)-style direct indexing, no numpy."""
    coeffs = {a.support_start + i: z for i, z in enumerate(a.coefficients)}
    total = 0j
    for n, z in coeffs.items():
        if n + h in coeffs:
            total += coeffs[n + h] * complex(z).conjugate()
    return total


class TestFiniteSequence:
    def test_support_bookkeeping(self):
        a = FiniteSequence(3, (1, 2j, -1))
        assert len(a) == 3
        assert a.support_end == 5
        assert a.coefficients.dtype == np.complex128

    def test_rejects_empty(self):
        with pytest.raises(PreconditionViolated):
            FiniteSequence(1, ())

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionViolated):
            FiniteSequence(1, (1.0, float("nan")))
        with pytest.raises(PreconditionViolated):
            FiniteSequence(1, (complex(float("inf"), 0),))

    def test_random_sequence_seeded(self):
        a = random_sequence(10, np.random.default_rng(5))
        b = random_sequence(10, np.random.default_rng(5))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.support_start == 1


class TestShiftedAutocorrelation:
    @given(complex_coeffs, st.integers(-45, 45))
    def test_matches_brute(self, coeffs, h):
        a = FiniteSequence(1, tuple(coeffs))
        got = shifted_autocorrelation(a, h)
        want = brute_autocorrelation(a, h)
        assert abs(got - want) < 1e-9 * (1 + abs(want))

    @given(complex_coeffs, st.integers(0, 45))
    def test_conjugate_symmetry(self, coeffs, h):
        a = FiniteSequence(1, tuple(coeffs))
        assert shifted_autocorrelation(a, -h) == complex(
            shifted_autocorrelation(a, h)
        ).conjugate()

    def test_zero_shift_is_l2_norm(self):
        a = FiniteSequence(1, (3, 4j, 1 - 1j))
        c0 = shifted_autocorrelation(a, 0)
        assert c0 == pytest.approx(9 + 16 + 2)
        assert c0.imag == 0

    def test_out_of_range_shift(self):
        a = FiniteSequence(1, (1, 2))
        assert shifted_autocorrelation(a, 2) == 0
        assert shifted_autocorrelation(a, -2) == 0


class TestInequality:
    def test_single_term(self):
        lhs, rhs = vdc_inequality_check(FiniteSequence(1, (1.0,)), 1)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)

    def test_all_ones_arbitrary_h(self):
        n = 30
        a = FiniteSequence(1, (1.0,) * n)
        for h in (1, 3, 7, 30, 100):
            lhs, rhs = vdc_inequality_check(a, h)
            assert lhs == pytest.approx(float(n * n))
            assert lhs <= rhs * (1 + 1e-12)

    @given(complex_coeffs, st.integers(1, 60))
    def test_never_violated(self, coeffs, H):
        a = FiniteSequence(1, tuple(coeffs))
        lhs, rhs = vdc_inequality_check(a, H)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))

    @given(st.integers(1, 120), st.integers(0, 8))
    def test_extremal_sequence(self, H, extra):
        # the weighted sum is a^T K a with K the N x N Toeplitz matrix of
        # max(0, 1 - |h|/H), so a = K^-1 1 makes |sum a|^2 / (a^T K a) its
        # largest, C* = 1^T K^-1 1, and lhs/rhs = C*/(1 + N/H): within 1% of
        # 1 (N/(N + 1)) for the multiples N >= 100 of H drawn here
        linalg = pytest.importorskip("scipy.linalg")
        N = H * (-(-100 // H) + extra)
        x = linalg.solve_toeplitz(np.maximum(0.0, 1 - np.arange(N) / H), np.ones(N))
        cstar = float(x.sum())
        lhs, rhs = vdc_inequality_check(FiniteSequence(1, x), H)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))
        assert 0.99 <= cstar / (1 + N / H) <= 1
        assert lhs / rhs >= 0.99

    def test_spike_sequence_tight_at_large_h(self):
        a = FiniteSequence(1, (0.0,) * 10 + (1.0,) + (0.0,) * 10)
        lhs, rhs = vdc_inequality_check(a, 5)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx((1 + 21 / 5) * 1.0)

    def test_bad_inputs(self):
        a = FiniteSequence(1, (1.0,))
        with pytest.raises(BadShiftBound):
            vdc_inequality_check(a, 0)
        with pytest.raises(PreconditionViolated):
            vdc_inequality_check(FiniteSequence(2, (1.0,)), 3)


def per_shift_sum(a: FiniteSequence, weights: list) -> float:
    """sum_{|h| < H} weights[|h|] C(h), one shifted_autocorrelation per shift."""
    total = weights[0] * shifted_autocorrelation(a, 0).real
    for h in range(1, len(weights)):
        total += 2.0 * weights[h] * shifted_autocorrelation(a, h).real
    return total


@st.composite
def sequence_and_shift(draw):
    n = draw(st.integers(1, 200))
    parts = st.floats(-5, 5)
    coeffs = draw(st.lists(st.builds(complex, parts, parts), min_size=n, max_size=n))
    return FiniteSequence(1, tuple(coeffs)), draw(st.integers(1, n))


class TestOneCorrelationPerSequence:
    # every C(h) comes from one np.correlate; the per-shift dot products are
    # the reference, within the rounding of two length-N dot products
    @staticmethod
    def tolerance(a: FiniteSequence, weights: list) -> float:
        norm = float(np.sum(np.abs(a.coefficients) ** 2))
        return 4 * len(a) * 2**-52 * 2 * sum(abs(w) for w in weights) * norm

    @given(sequence_and_shift())
    def test_inequality_rhs(self, case):
        a, H = case
        weights = [1.0 - h / H for h in range(H)]
        _, rhs = vdc_inequality_check(a, H)
        want = (1.0 + len(a) / H) * per_shift_sum(a, weights)
        assert abs(rhs - want) <= (1.0 + len(a) / H) * self.tolerance(a, weights)

    @given(sequence_and_shift())
    def test_amplified_rhs(self, case):
        a, H = case
        weights = [float(H - h) for h in range(H)]
        _, rhs = amplified_l2_identity(a, H)
        assert abs(rhs - per_shift_sum(a, weights)) <= self.tolerance(a, weights)


class TestDirichletKernel:
    def test_at_zero(self):
        assert dirichlet_kernel(7, 0.0) == pytest.approx(7.0)

    def test_closed_form(self):
        # geometric series ratio against the direct sum
        for H, x in ((3, 0.21), (11, 0.048), (2, 0.5)):
            z = cmath.exp(2j * cmath.pi * x)
            want = z * (z**H - 1) / (z - 1)
            assert dirichlet_kernel(H, x) == pytest.approx(want, abs=1e-12)

    @given(st.integers(1, 40), st.floats(-2, 2))
    def test_bounded_by_length(self, H, x):
        assert abs(dirichlet_kernel(H, x)) <= H + 1e-9

    def test_rejects_zero_length(self):
        with pytest.raises(BadShiftBound):
            dirichlet_kernel(0, 0.3)


class TestAmplifiedIdentity:
    @given(complex_coeffs, st.integers(1, 25))
    def test_exact_identity(self, coeffs, H):
        a = FiniteSequence(1, tuple(coeffs))
        lhs, rhs = amplified_l2_identity(a, H)
        assert lhs == pytest.approx(rhs, abs=1e-7 * (1 + abs(lhs)))

    def test_h_one_reduces_to_plain_l2(self):
        a = FiniteSequence(1, (1 + 2j, -3, 0.5j))
        lhs, rhs = amplified_l2_identity(a, 1)
        norm = sum(abs(z) ** 2 for z in a.coefficients)
        assert lhs == pytest.approx(norm)
        assert rhs == pytest.approx(norm)

    def test_spike(self):
        # a single spike: conv with ones(H) has H unit entries
        a = FiniteSequence(1, (0.0,) * 5 + (2.0,) + (0.0,) * 3)
        lhs, rhs = amplified_l2_identity(a, 6)
        assert lhs == pytest.approx(6 * 4.0)
        assert rhs == pytest.approx(6 * 4.0)


class TestTwistedSum:
    def test_direct(self):
        m = modulus(3, 2)
        chi = DirichletCharacter(m, 1)
        a = FiniteSequence(1, (1.0, 1.0, 1.0, 1.0))
        want = chi(1) + chi(2) + chi(3) + chi(4)
        assert twisted_sum(a, m, [chi.c])[0] == pytest.approx(want, abs=1e-14)

    def test_support_offset(self):
        m = modulus(3, 2)
        chi = DirichletCharacter(m, 2)
        a = FiniteSequence(10, (2.0, -1j))
        want = 2.0 * chi(10) + (-1j) * chi(11)
        assert twisted_sum(a, m, [chi.c])[0] == pytest.approx(want, abs=1e-14)


@st.composite
def sequence_on_small_modulus(draw):
    """A small modulus and a sequence on it, starting anywhere in [-30, 30]
    and sometimes longer than q."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]))
    m = modulus(p, k)
    n = draw(st.integers(1, m.q + 10))
    parts = st.floats(-5, 5)
    coeffs = draw(st.lists(st.builds(complex, parts, parts), min_size=n, max_size=n))
    return m, FiniteSequence(draw(st.integers(-30, 30)), tuple(coeffs))


@st.composite
def dlogs_and_exponents(draw):
    """A modulus, dlogs in [-1, phi) (-1 for a non-unit) and exponents in
    [0, phi)."""
    p, k = draw(st.sampled_from([(3, 1), (3, 4), (5, 3), (7, 2), (3, 11)]))
    m = modulus(p, k)
    ints = st.lists(st.integers(-1, m.phi - 1), min_size=1, max_size=30)
    d = np.array(draw(ints), dtype=np.int64)
    cs = np.array(draw(ints), dtype=np.int64).clip(0)
    return m, d, cs


class TestBatchedTwistedSum:
    @given(dlogs_and_exponents())
    def test_character_rows_match_remainder_route(self, case):
        m, d, cs = case
        got = vdc._character_rows(m, d, cs)
        want = character_rows_oracle(m, d, cs)
        np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))

    # one row per exponent against the one-character-at-a-time oracle; the
    # terms agree bit for bit, so the rows differ only by summation order
    @given(sequence_on_small_modulus())
    def test_rows_match_oracle(self, case):
        m, a = case
        got = twisted_sum(a, m, range(m.phi))
        tol = 4 * len(a) * 2**-53 * float(np.sum(np.abs(a.coefficients)))
        for c in range(m.phi):
            want = twisted_sum_oracle(a, DirichletCharacter(m, c))
            assert abs(got[c] - want) <= tol

    @given(sequence_on_small_modulus(), st.data())
    def test_lhs_matches_member_loop(self, case, data):
        m, a = case
        chi = DirichletCharacter(m, data.draw(st.sampled_from(list(primitive_exponents(m)))))
        j = data.draw(st.integers(0, m.k))
        lhs, _ = coset_shift_identity(a, chi, j)
        assert lhs == pytest.approx(coset_mean_square(a, chi, j), rel=1e-13)

    def test_members_are_the_coset(self, monkeypatch):
        seen = []
        batched = vdc.twisted_sum

        def recording(a, m, cs):
            seen.append(list(cs))
            return batched(a, m, cs)

        monkeypatch.setattr(vdc, "twisted_sum", recording)
        a = random_sequence(30, np.random.default_rng(4))
        for p, k, c in ((3, 3, 2), (5, 2, 7), (7, 2, 41)):
            chi = DirichletCharacter(modulus(p, k), c)
            for j in range(k + 1):
                coset_shift_identity(a, chi, j)
                members = enumerate_coset(CosetSpec(chi, j, "all"))
                assert seen.pop() == [eta.c for eta in members]

    def test_blocks_do_not_change_bits(self, monkeypatch):
        m = modulus(5, 3)
        chi = DirichletCharacter(m, 3)
        a = FiniteSequence(-12, random_sequence(70, np.random.default_rng(6)).coefficients)
        whole = twisted_sum(a, m, range(m.phi))
        identity = coset_shift_identity(a, chi, 2)
        # 3 rows per block, so the 20-member coset takes 7 blocks
        monkeypatch.setattr(modular, "BLOCK", 3 * len(a))
        assert np.array_equal(twisted_sum(a, m, range(m.phi)), whole)
        assert coset_shift_identity(a, chi, 2) == identity


class TestCosetShiftIdentity:
    def test_exact_on_random_sequences(self):
        rng = np.random.default_rng(2)
        for p, k in ((3, 3), (5, 2)):
            m = modulus(p, k)
            chi = DirichletCharacter(m, 1)
            for j in range(0, k + 1):
                for _ in range(10):
                    a = random_sequence(int(rng.integers(1, 120)), rng)
                    lhs, rhs = coset_shift_identity(a, chi, j)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_level_zero_trivial(self):
        # singleton coset: lhs = |twisted sum|^2, rhs = C_b(0) + all shifts
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 1)
        a = random_sequence(40, np.random.default_rng(7))
        lhs, rhs = coset_shift_identity(a, chi, 0)
        assert lhs == pytest.approx(abs(twisted_sum(a, m, [chi.c])[0]) ** 2, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_short_support_only_diagonal(self):
        # support shorter than q0: only the h = 0 term survives on the right,
        # which is phi(q0) * sum over units of |a_n|^2
        m = modulus(5, 2)
        chi = DirichletCharacter(m, 3)
        a = FiniteSequence(1, tuple(range(1, 5)))  # length 4 < q0 = 5
        lhs, rhs = coset_shift_identity(a, chi, 1)
        units_mass = sum(
            abs(z) ** 2 for n, z in enumerate(a.coefficients, start=1)
            if n % 5 != 0
        )
        assert rhs == pytest.approx(4 * units_mass, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_positivity_bound(self):
        # each single coset member is dominated by the full coset sum
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 2)
        a = random_sequence(60, np.random.default_rng(9))
        lhs, _ = coset_shift_identity(a, chi, 1)
        members = [eta.c for eta in enumerate_coset(CosetSpec(chi, 1, "all"))]
        for s in twisted_sum(a, m, members):
            assert abs(s) ** 2 <= lhs * (1 + 1e-12)

    @given(
        sequence_and_shift(),
        st.sampled_from([(3, 3, 2), (5, 2, 3), (7, 3, 40)]),
        st.data(),
    )
    def test_rhs_matches_per_shift_sum_bitwise(self, case, mod, data):
        # b_n = a_n chi(n) from the value table, then one shifted
        # autocorrelation per multiple of q0
        p, k, c = mod
        j = data.draw(st.integers(0, k))
        a = FiniteSequence(data.draw(st.integers(-30, 30)), case[0].coefficients)
        m = modulus(p, k)
        chi = DirichletCharacter(m, c)
        idx = np.arange(a.support_start, a.support_end + 1) % m.q
        b = FiniteSequence(0, tuple(a.coefficients * chi.value_table()[idx]))
        q0 = p**j
        want = shifted_autocorrelation(b, 0).real
        for h in range(1, (len(a) - 1) // q0 + 1):
            want += 2.0 * shifted_autocorrelation(b, h * q0).real
        want *= q0 - q0 // p  # phi(q0), 1 at j = 0
        _, rhs = coset_shift_identity(a, chi, j)
        assert rhs == want

    def test_full_level_is_plancherel(self):
        # j = k: averaging over every character mod q
        m = modulus(5, 2)
        chi = DirichletCharacter(m, 1)
        a = random_sequence(25, np.random.default_rng(13))
        lhs, rhs = coset_shift_identity(a, chi, 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)
