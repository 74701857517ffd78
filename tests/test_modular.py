import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cosetlfun.modular as modular_module
from cosetlfun.errors import InvalidModulus, NotInvertible, NotOneUnit
from cosetlfun.modular import (
    MAX_MODULUS,
    PrimePowerModulus,
    divisor_count,
    epsilon_q,
    is_prime,
    jacobi_symbol,
    mod_inverse,
    modulus,
    padic_log,
    reduce_mod,
    root_of_unity,
    signed_lift,
)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
    return old_r, old_s


def padic_log_oracle(x: int, p: int, k: int) -> int:
    """Exact-rational truncation of the alternating log series, then /p."""
    q = p**k
    y = Fraction((x % q) - 1)
    s = Fraction(0)
    ypow = Fraction(1)
    for i in range(1, k + 12):
        ypow *= y
        s += ypow / i if i % 2 else -ypow / i
    s /= p
    assert s.denominator % p != 0
    mod = p ** (k - 1)
    return s.numerator * pow(s.denominator, -1, mod) % mod


class TestIsPrime:
    def test_matches_trial_division_small(self):
        for n in range(-3, 2000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_known_large(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31 + 1)
        assert is_prime(10**9 + 7)
        # Carmichael numbers must not slip through
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)


class TestModInverse:
    @given(st.integers(1, 10**6), st.integers(2, 10**6))
    def test_inverse_property(self, a, m):
        g, s = egcd(a, m)
        if g == 1:
            inv = mod_inverse(a, m)
            assert 0 <= inv < m
            assert a * inv % m == 1
            assert inv == s % m
        else:
            with pytest.raises(NotInvertible):
                mod_inverse(a, m)

    def test_nonpositive_modulus(self):
        with pytest.raises(InvalidModulus):
            mod_inverse(3, 0)


class TestJacobi:
    def test_euler_criterion_prime(self):
        # (a|p) = a^((p-1)/2) mod p for odd primes
        for p in (3, 5, 7, 11, 13, 97, 229):
            for a in range(0, 2 * p):
                want = pow(a, (p - 1) // 2, p)
                want = -1 if want == p - 1 else want
                assert jacobi_symbol(a, p) == want, (a, p)

    def test_multiplicative_in_modulus(self):
        for a in range(-10, 25):
            for q1 in (3, 5, 9, 15):
                for q2 in (7, 11, 21):
                    lhs = jacobi_symbol(a, q1 * q2)
                    rhs = jacobi_symbol(a, q1) * jacobi_symbol(a, q2)
                    assert lhs == rhs

    @given(st.integers(-500, 500), st.integers(-500, 500), st.integers(0, 200))
    def test_multiplicative_in_argument(self, a, b, qi):
        q = 2 * qi + 1
        if q < 1:
            return
        assert jacobi_symbol(a * b, q) == jacobi_symbol(a, q) * jacobi_symbol(b, q)

    def test_rejects_even_modulus(self):
        with pytest.raises(InvalidModulus):
            jacobi_symbol(3, 8)


class TestEpsilonAndLift:
    def test_epsilon_values(self):
        for q in (1, 5, 9, 13, 25, 625):
            assert epsilon_q(q) == 1
        for q in (3, 7, 11, 27, 343):
            assert epsilon_q(q) == 1j
        with pytest.raises(InvalidModulus):
            epsilon_q(4)

    @given(st.integers(-(10**9), 10**9), st.integers(0, 10**4))
    def test_signed_lift(self, x, mi):
        mod = 2 * mi + 3
        r = signed_lift(x, mod)
        assert -mod < 2 * r < mod
        assert (r - x) % mod == 0

    def test_signed_lift_examples(self):
        assert signed_lift(1, 81) == 1
        assert signed_lift(80, 81) == -1
        assert signed_lift(40, 81) == 40
        assert signed_lift(41, 81) == -40


class TestRootOfUnity:
    def test_matches_cmath(self):
        for den in (1, 2, 3, 7, 81, 125):
            for num in range(den):
                want = cmath.exp(2j * cmath.pi * (num / den))
                assert root_of_unity(num, den) == want
                naive = cmath.exp(2j * cmath.pi * num / den)
                assert abs(root_of_unity(num, den) - naive) < 1e-14

    def test_angle_reduced_in_integers(self):
        # Huge numerators must not lose precision before reduction
        den = 3**6
        num = 10**18 + 5
        assert root_of_unity(num, den) == root_of_unity(num % den, den)

    def test_order(self):
        z = root_of_unity(1, 7)
        assert abs(z**7 - 1) < 1e-14
        assert abs(z - 1) > 0.5


class TestReduceMod:
    @given(
        st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=50),
        st.integers(1, 2**31),
    )
    def test_matches_remainder(self, xs, mod):
        x = np.array(xs, dtype=np.int64)
        want = x % mod
        got = reduce_mod(x, mod)
        assert got is x  # reduced in place
        np.testing.assert_array_equal(got, want)

    @given(
        st.lists(st.integers(-(2**62), 2**62 - 1), min_size=1, max_size=50),
        st.integers(1, 2**31),
    )
    def test_floor_convention_for_negatives(self, xs, mod):
        x = np.array(xs, dtype=np.int64)
        np.testing.assert_array_equal(reduce_mod(x.copy(), mod), x % mod)

    def test_reduces_a_view_in_place(self):
        x = np.arange(20, dtype=np.int64) * 7
        reduce_mod(x[5:15], 9)
        np.testing.assert_array_equal(x[5:15], np.arange(5, 15) * 7 % 9)
        np.testing.assert_array_equal(x[:5], np.arange(5) * 7)


class TestDivisorCount:
    def test_brute(self):
        for n in range(1, 500):
            want = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert divisor_count(n) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisor_count(0)


class TestPrimePowerModulus:
    def test_rejects_bad_input(self):
        for p, k in ((2, 3), (4, 1), (9, 2), (15, 1), (3, 0), (-3, 2)):
            with pytest.raises(InvalidModulus):
                PrimePowerModulus(p, k)
        with pytest.raises(InvalidModulus):
            PrimePowerModulus(3, 90)  # beyond the 2^31 cap
        with pytest.raises(InvalidModulus):
            PrimePowerModulus(3, 20)  # 3.5e9: rejected before any table
        with pytest.raises(InvalidModulus, match=r"q = 3\^1000000000000 exceeds"):
            PrimePowerModulus(3, 10**12)  # rejected before 3**k is formed

    def test_cap_checked_before_primality(self):
        # trial division would need about 2^60 steps to find (2^61 - 1)^2
        # composite; the cap refuses it first
        with pytest.raises(InvalidModulus, match=r"exceeds the 2\^31 cap"):
            PrimePowerModulus((2**61 - 1) ** 2, 1)

    def test_generator_generates(self):
        for p, k in ((3, 1), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1)):
            m = modulus(p, k)
            seen = set()
            t = 1
            for _ in range(m.phi):
                seen.add(t)
                t = t * m.generator % m.q
            assert len(seen) == m.phi
            assert t == 1  # order exactly phi

    def test_dlog_roundtrip(self):
        m = modulus(3, 4)
        for t in np.flatnonzero(m.dlog >= 0):
            t = int(t)
            assert pow(m.generator, m.index_of(t), m.q) == t

    def test_units_listing(self):
        m = modulus(5, 2)
        want = [t for t in range(25) if t % 5 != 0]
        assert sorted(m.powers.tolist()) == want
        assert np.flatnonzero(m.dlog >= 0).tolist() == want
        assert m.phi == 20

    # 3^11 has phi = 118098, past 46341, where 32-bit angle products wrap
    @pytest.mark.parametrize("p, k", [(3, 1), (3, 11), (5, 6), (7, 4), (13, 2)])
    def test_generator_order_tables(self, p, k):
        m = modulus(p, k)
        pw = m.powers.tolist()
        assert m.powers.dtype == m.dlog.dtype == np.int64
        assert len(pw) == m.phi and pw[0] == 1
        assert all(b == a * m.generator % m.q for a, b in zip(pw, pw[1:]))
        assert pw[-1] * m.generator % m.q == 1
        np.testing.assert_array_equal(m.dlog[m.powers], np.arange(m.phi))
        non_units = np.arange(m.q) % p == 0
        np.testing.assert_array_equal(m.dlog == -1, non_units)
        assert not (m.powers.flags.writeable or m.dlog.flags.writeable)

    def test_index_of_nonunit_raises(self):
        m = modulus(3, 3)
        with pytest.raises(NotInvertible):
            m.index_of(6)
        with pytest.raises(NotInvertible):
            m.index_of(0)

    def test_root_tables(self):
        m = modulus(7, 2)
        assert m.phi_roots.shape == (42,)
        assert m.q_roots.shape == (49,)
        np.testing.assert_allclose(m.phi_roots[0], 1.0)
        # e(j/q) spot values
        j = 11
        assert abs(m.q_roots[j] - cmath.exp(2j * cmath.pi * j / 49)) < 1e-15

    @pytest.mark.parametrize("p, k", [(3, 1), (3, 11), (5, 6), (7, 4), (13, 2)])
    def test_power_roots(self, p, k):
        # e_q(g^i), bit for bit the q_roots entry at g^i
        m = modulus(p, k)
        row = m.power_roots
        assert not row.flags.writeable
        np.testing.assert_array_equal(row, m.q_roots[m.powers])

    def test_factory_caches(self):
        assert modulus(3, 4) is modulus(3, 4)
        assert modulus(3, 4) == PrimePowerModulus(3, 4)
        assert hash(modulus(3, 4)) == hash(PrimePowerModulus(3, 4))

    def test_max_modulus_constant(self):
        assert MAX_MODULUS == 2**31

    def test_rejects_table_larger_than_memory(self, monkeypatch):
        # 3^7: dlog 8q, powers 8 phi, q_roots 16q, phi_roots 16 phi and
        # power_roots 16 phi make 24 * 2187 + 40 * 1458 = 110808 bytes
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 110807)
        with pytest.raises(InvalidModulus, match="110808 bytes"):
            PrimePowerModulus(3, 7)
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 110808)
        assert PrimePowerModulus(3, 7).q == 2187

    def test_refuses_3_18_before_allocating(self, monkeypatch):
        # 24 * 3^18 + 40 * phi is about 19.6e9 bytes; an 8 GiB host refuses
        # it before any table exists, so the refusal is immediate
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: 8 * 2**30)
        with pytest.raises(InvalidModulus, match="19629304776 bytes"):
            PrimePowerModulus(3, 18)

    def test_physical_memory_is_positive(self):
        assert modular_module._physical_memory() > 0


class TestPadicLog:
    def test_against_fraction_oracle(self):
        for p, k in ((3, 4), (3, 6), (5, 3), (5, 5), (7, 3), (11, 2)):
            m = modulus(p, k)
            q = p**k
            for x in range(1, q, p):  # all 1-units mod p
                assert padic_log(x, m) == padic_log_oracle(x, p, k), (p, k, x)

    def test_log_one_is_zero(self):
        assert padic_log(1, modulus(3, 5)) == 0
        assert padic_log(1 + 3**5, modulus(3, 5)) == 0

    def test_rejects_non_one_unit(self):
        m = modulus(5, 3)
        for x in (2, 3, 4, 5, 0, 124):
            with pytest.raises(NotOneUnit):
                padic_log(x, m)

    def test_homomorphism(self):
        # log(xy) = log(x) + log(y) on 1-units, after the /p normalization
        rng = np.random.default_rng(11)
        for p, k in ((3, 5), (5, 4), (7, 3)):
            m = modulus(p, k)
            q = p**k
            mod = p ** (k - 1)
            for _ in range(60):
                x = 1 + p * int(rng.integers(0, q // p))
                y = 1 + p * int(rng.integers(0, q // p))
                lhs = padic_log(x * y % q, m)
                rhs = (padic_log(x, m) + padic_log(y, m)) % mod
                assert lhs == rhs

    def test_k_equals_one_degenerates(self):
        assert padic_log(1, modulus(7, 1)) == 0

    @given(st.data())
    def test_closed_form_up_to_the_cap(self, data):
        # a stand-in carrying p, k and q: a PrimePowerModulus at these sizes
        # would build, or refuse, q-length tables
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13, 101]))
        k = data.draw(st.integers(1, max(k for k in range(1, 32) if p**k < MAX_MODULUS)))
        m = SimpleNamespace(p=p, k=k, q=p**k)
        x, y = (
            1 + p * data.draw(st.integers(0, p ** (k - 1) - 1)) for _ in range(2)
        )
        assert padic_log(x, m) == padic_log_oracle(x, p, k)
        lhs = padic_log(x * y, m)
        assert lhs == (padic_log(x, m) + padic_log(y, m)) % p ** (k - 1)
