import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_unit_sum
from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    character_with_ell,
    classify_regime,
    enumerate_coset,
    postnikov_ell,
)
from cosetlfun.errors import (
    NotPrimitive,
    OddCharacter,
    PreconditionViolated,
    RegimeMismatch,
    UnsupportedRegime,
)
import cosetlfun.gauss as gauss_module
from cosetlfun.gauss import (
    coset_epsilon_average,
    coset_epsilon_average_closed,
    eps_regimes,
    gauss_ratio_check,
    gauss_sum_brute,
    gauss_sum_odoni,
    gauss_sums,
    near_one_root_number_check,
    root_number,
)
from cosetlfun.modular import modulus, root_of_unity, sample_units
from cosetlfun.report import rel_err
from oracles import (
    SharedFactor,
    additive_row_oracle,
    eps_regimes_oracle,
    gauss_sum_oracle,
    quadratic_gauss_closed,
)

# q in {3, 9, 27, 81, 5, 25, 125, 7, 49, 11, 121}
ORACLE_MODULI = [(p, k) for p in (3, 5, 7, 11) for k in range(1, 5) if p**k < 128]


def same_bits(a: complex, b: complex) -> bool:
    return np.complex128(a).tobytes() == np.complex128(b).tobytes()


class TestGaussSumBrute:
    def test_matches_pure_python(self):
        for p, k in ((3, 2), (5, 2), (7, 1), (3, 3)):
            m = modulus(p, k)
            for c in (1, 2, 5):
                chi = DirichletCharacter(m, c)
                for n in (1, 2, m.q - 1, p):
                    got = gauss_sum_brute(chi, n)
                    want = brute_unit_sum(chi, n)
                    assert abs(got - want) < 1e-11 * m.q

    def test_magnitude_primitive(self):
        for p, k in ((3, 3), (5, 2), (7, 2), (11, 1)):
            m = modulus(p, k)
            for c in range(1, m.phi):
                chi = DirichletCharacter(m, c)
                if not chi.is_primitive:
                    continue
                tau = gauss_sum_brute(chi)
                assert abs(abs(tau) ** 2 - m.q) < 1e-9 * m.q

    def test_twist_by_unit_rotates(self):
        # tau(chi, n) = conj(chi(n)) tau(chi) for n coprime to q
        m = modulus(5, 3)
        chi = DirichletCharacter(m, 7)
        tau1 = gauss_sum_brute(chi)
        for n in (2, 3, 7, 124):
            got = gauss_sum_brute(chi, n)
            want = chi(n).conjugate() * tau1
            assert abs(got - want) < 1e-10

    def test_conjugate_symmetry(self):
        m = modulus(3, 4)
        for c in (1, 5, 7):
            chi = DirichletCharacter(m, c)
            lhs = gauss_sum_brute(chi.conjugate())
            rhs = chi(-1) * gauss_sum_brute(chi).conjugate()
            assert abs(lhs - rhs) < 1e-10

    def test_big_modulus_path(self):
        # force the overflow-safe branch by a modulus with q*phi > 2^62
        # on the angle products; cheapest is to fake via large c*n products
        m = modulus(3, 2)
        chi = DirichletCharacter(m, 1)
        # both paths must agree on the same inputs
        got = gauss_sum_brute(chi, 5)
        want = brute_unit_sum(chi, 5)
        assert abs(got - want) < 1e-12


class TestGaussSumBruteOracle:
    # the rotated per-modulus row for units and the reduced product row for
    # p | n read the same table roots as the `%` product route, in the same
    # order, so the sums agree bit for bit
    @pytest.mark.parametrize("p, k", ORACLE_MODULI)
    def test_every_c_and_twist(self, p, k):
        m = modulus(p, k)
        for n in (0, 1, 2, p, 2 * p, -1, m.q - 1, m.q + 3):
            for c in range(m.phi):
                chi = DirichletCharacter(m, c)
                got, want = gauss_sum_brute(chi, n), gauss_sum_oracle(chi, n)
                assert same_bits(got, want), (c, n)

    @given(
        pk=st.sampled_from(ORACLE_MODULI + [(3, 9), (5, 6)]),
        c=st.integers(-(10**9), 10**9),
        n=st.integers(-(10**12), 10**12),
    )
    def test_any_c_and_twist(self, pk, c, n):
        chi = DirichletCharacter(modulus(*pk), c)
        assert same_bits(gauss_sum_brute(chi, n), gauss_sum_oracle(chi, n))


class TestGaussSumsFFT:
    @pytest.mark.parametrize("p, k", ORACLE_MODULI)
    def test_transform_input_matches_product_route(self, p, k):
        m = modulus(p, k)
        for n in (0, 1, 2, p, 2 * p, -1, m.q - 1, m.q + 3):
            want = np.fft.ifft(additive_row_oracle(m, n)) * m.phi
            np.testing.assert_array_equal(gauss_sums(m, n), want)

    @pytest.mark.parametrize(
        "p,k", [(3, 1), (3, 2), (3, 5), (5, 3), (7, 2), (11, 2), (5, 6)]
    )
    def test_every_character_matches_brute(self, p, k):
        m = modulus(p, k)
        # phi^2 brute terms per twist, so the largest modulus takes one
        # (reduced) unit twist and the others every kind of twist
        twists = (m.q + 3,) if m.q > 10**4 else (0, 1, 2, p, -1, m.q + 3)
        for n in twists:
            taus = gauss_sums(m, n)
            assert taus.shape == (m.phi,)
            want = [gauss_sum_brute(DirichletCharacter(m, c), n) for c in range(m.phi)]
            assert np.abs(taus - want).max() <= 1e-12 * math.sqrt(m.q), n


class TestQuadraticGaussClosed:
    def brute(self, a, b, q):
        return sum(cmath.exp(2j * cmath.pi * ((a * x * x + b * x) % q) / q)
                   for x in range(q))

    def test_matches_brute(self):
        for q in (3, 5, 7, 9, 15, 21, 25, 27):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                for b in (0, 1, 2, q - 1):
                    got = quadratic_gauss_closed(a, b, q)
                    want = self.brute(a, b, q)
                    assert abs(got - want) < 1e-9 * q, (a, b, q)

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            quadratic_gauss_closed(3, 1, 9)

    def test_rejects_even_modulus(self):
        from cosetlfun.errors import InvalidModulus

        with pytest.raises(InvalidModulus):
            quadratic_gauss_closed(1, 0, 4)


class TestOdoni:
    def test_even_k_matches_brute(self):
        for p, k in ((3, 2), (3, 4), (5, 2), (7, 2)):
            m = modulus(p, k)
            for c in range(1, m.phi):
                chi = DirichletCharacter(m, c)
                if not chi.is_primitive:
                    continue
                got = gauss_sum_odoni(chi)
                want = gauss_sum_brute(chi)
                assert abs(got - want) < 1e-9 * math.sqrt(m.q)

    def test_odd_k_matches_brute(self):
        for p, k in ((5, 3), (7, 3), (11, 3), (5, 5)):
            m = modulus(p, k)
            step = max(1, m.phi // 40)
            for c in range(1, m.phi, step):
                chi = DirichletCharacter(m, c)
                if not chi.is_primitive:
                    continue
                got = gauss_sum_odoni(chi)
                want = gauss_sum_brute(chi)
                assert abs(got - want) < 1e-9 * math.sqrt(m.q)

    def test_representative_shift_invariance(self):
        # at k = 2n the collapsed summand chi(t) e_q(t) has period p^n in t,
        # so any representative of t0 = -ell mod p^n gives the closed form
        m = modulus(5, 4)
        chi = DirichletCharacter(m, 3)
        pn = 5**2
        t0 = -postnikov_ell(chi) % pn
        base = chi(t0) * root_of_unity(t0, m.q)
        assert abs(gauss_sum_odoni(chi) - pn * base) < 1e-9 * math.sqrt(m.q)
        for shift in (1, 2, -1, 7):
            t = (t0 + shift * pn) % m.q
            assert abs(chi(t) * root_of_unity(t, m.q) - base) < 1e-9

    def test_unsupported_regimes(self):
        with pytest.raises(UnsupportedRegime):
            gauss_sum_odoni(DirichletCharacter(modulus(5, 1), 1))
        with pytest.raises(UnsupportedRegime):
            gauss_sum_odoni(DirichletCharacter(modulus(3, 3), 1))
        with pytest.raises(UnsupportedRegime):
            gauss_sum_odoni(DirichletCharacter(modulus(3, 5), 1))

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitive):
            gauss_sum_odoni(DirichletCharacter(modulus(3, 4), 3))


class TestRootNumber:
    def test_unit_modulus_primitive(self):
        for p, k in ((3, 3), (5, 2), (7, 2)):
            m = modulus(p, k)
            for c in range(1, m.phi):
                chi = DirichletCharacter(m, c)
                if chi.is_primitive:
                    assert abs(abs(root_number(chi)) - 1) < 1e-9

    def test_conjugation_inverts(self):
        m = modulus(5, 3)
        for c in (1, 2, 7, 11):
            chi = DirichletCharacter(m, c)
            eps = root_number(chi)
            eps_bar = root_number(chi.conjugate())
            assert abs(eps * eps_bar - 1) < 1e-9


class TestGaussRatio:
    def test_exhaustive_even_k(self):
        # at even k the ceil and floor conductor windows coincide and the
        # collapsed formula is clean on all of it
        m = modulus(3, 4)
        for c1 in range(1, m.phi):
            if c1 % 3 == 0:
                continue
            chi1 = DirichletCharacter(m, c1)
            for c2 in range(1, m.phi):
                if c2 % 3 == 0:
                    continue
                chi2 = DirichletCharacter(m, c2)
                if (chi1 * chi2.conjugate()).conductor > 3**2:
                    continue
                for tw in (1, 2, 5):
                    brute, closed = gauss_ratio_check(chi1, chi2, tw)
                    assert abs(brute - closed) < 1e-9, (c1, c2, tw)

    def test_exhaustive_odd_k_floor_window(self):
        # ratio conductor dividing p^floor(k/2): formula exact for odd k too
        for p in (3, 5):
            m = modulus(p, 3)
            for c1 in range(1, m.phi):
                if c1 % p == 0:
                    continue
                chi1 = DirichletCharacter(m, c1)
                for c2 in range(1, m.phi):
                    if c2 % p == 0:
                        continue
                    chi2 = DirichletCharacter(m, c2)
                    if (chi1 * chi2.conjugate()).conductor > p:
                        continue
                    brute, closed = gauss_ratio_check(chi1, chi2, 2)
                    assert abs(brute - closed) < 1e-9, (p, c1, c2)

    def test_odd_k_ceil_boundary_picks_up_quadratic_factor(self):
        # Pairs whose ratio conductor is exactly p^ceil(k/2) at odd k deviate
        # from the collapsed formula by e_p(-(2 ell_1)^(-1) delta^2) with
        # delta = (ell_2 - ell_1)/p^floor(k/2): the quadratic corrections of
        # the two closed forms no longer cancel.  Pin that structure down.
        from cosetlfun.modular import mod_inverse, root_of_unity

        for p in (5, 7):
            m = modulus(p, 3)
            n = 1  # floor(k/2)
            checked = 0
            for c1 in (1, 2, 3):
                chi1 = DirichletCharacter(m, c1)
                for c2 in range(1, m.phi):
                    if c2 % p == 0:
                        continue
                    chi2 = DirichletCharacter(m, c2)
                    if (chi1 * chi2.conjugate()).conductor != p ** (n + 1):
                        continue
                    l1 = postnikov_ell(chi1)
                    l2 = postnikov_ell(chi2)
                    delta = (l2 - l1) // p**n % p
                    assert delta != 0
                    brute, closed = gauss_ratio_check(chi1, chi2, 2)
                    corr = root_of_unity(
                        -mod_inverse(2 * l1, p) * delta * delta, p
                    )
                    assert abs(brute - closed * corr) < 1e-9
                    assert abs(brute - closed) > 0.1  # the plain formula really misses
                    checked += 1
            assert checked > 0

    def test_rejects_conductor_violation(self):
        m = modulus(3, 5)
        chi1 = DirichletCharacter(m, 1)
        chi2 = DirichletCharacter(m, 2)  # ratio exponent odd, conductor q
        with pytest.raises(PreconditionViolated):
            gauss_ratio_check(chi1, chi2, 1)

    def test_rejects_non_unit_twist(self):
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 1)
        with pytest.raises(PreconditionViolated):
            gauss_ratio_check(chi, chi, 3)

    def test_rejects_imprimitive(self):
        m = modulus(3, 4)
        with pytest.raises(NotPrimitive):
            gauss_ratio_check(
                DirichletCharacter(m, 3), DirichletCharacter(m, 1), 1
            )

    def test_identity_pair(self):
        m = modulus(5, 4)
        chi = DirichletCharacter(m, 9)
        brute, closed = gauss_ratio_check(chi, chi, 2)
        assert abs(brute - closed) < 1e-12  # ratio is exactly 1 vs chi-bar *chi at m


class TestNearOne:
    def test_small_even_k(self):
        for p, k in ((3, 2), (3, 4), (5, 2), (5, 4)):
            triples = near_one_root_number_check(modulus(p, k))
            assert max(rel_err(b, c) for _, b, c in triples) < 1e-9
            assert len(triples) == (p - 1) * p ** (k // 2 - 1)

    def test_rejects_odd_k(self):
        with pytest.raises(PreconditionViolated):
            near_one_root_number_check(modulus(5, 3))


class TestEpsRegimes:
    # the window that the oracle's regimes mark at p >= 5, which admits both
    WINDOW = {
        (): "none",
        ("linear",): "thm11",
        ("quadratic",): "thm12",
        ("linear", "quadratic"): "both",
    }

    def test_grid_matches_old_inequalities(self):
        for p in (3, 5, 7, 11):
            for k in range(1, 20):
                for j in range(0, k + 2):
                    want = eps_regimes_oracle(p, k, j)
                    assert eps_regimes(p, k, j) == want, (p, k, j)
                    window = self.WINDOW[tuple(eps_regimes_oracle(11, k, j))]
                    assert classify_regime(k, j) == window, (k, j)


class TestCosetEpsilonAverage:
    def test_closed_matches_brute(self):
        rng = np.random.default_rng(3)
        for p, k in ((3, 3), (3, 4), (5, 3), (5, 4), (7, 3)):
            m = modulus(p, k)
            for j in range(1, k):
                regimes = eps_regimes(p, k, j)
                if not regimes:
                    continue
                for c in (2, 4, m.phi - 2):
                    base = DirichletCharacter(m, c)
                    if not (base.is_primitive and base.is_even):
                        continue
                    spec = CosetSpec(base, j, "even")
                    twists = sample_units(rng, m.q, p, 6)
                    averages = coset_epsilon_average(spec, twists)
                    for tw, brute in zip(twists, averages):
                        for regime in regimes:
                            closed = coset_epsilon_average_closed(spec, tw, regime)
                            assert abs(brute - closed) < 1e-9, (p, k, j, c, tw, regime)

    def test_regimes_agree_where_overlapping(self):
        # k = 2j admits both windows for p >= 5; the two closed forms
        # must then agree with each other as well
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 2, "even")
        for tw in (1, 3, 7, 624):
            a = coset_epsilon_average_closed(spec, tw, "linear")
            b = coset_epsilon_average_closed(spec, tw, "quadratic")
            assert abs(a - b) < 1e-9

    def test_rejects_odd_base(self):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 3), 2, "even")
        with pytest.raises(OddCharacter):
            coset_epsilon_average(spec, [1])
        with pytest.raises(OddCharacter):
            coset_epsilon_average(spec, [])

    def test_rejects_wrong_parity_filter(self):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 2, "all")
        with pytest.raises(PreconditionViolated):
            coset_epsilon_average(spec, [1])
        with pytest.raises(PreconditionViolated):
            coset_epsilon_average(spec, [])

    def test_rejects_out_of_window_level(self):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 1, "even")
        with pytest.raises(RegimeMismatch):
            coset_epsilon_average_closed(spec, 1, "linear")
        m3 = modulus(3, 4)
        spec3 = CosetSpec(DirichletCharacter(m3, 2), 2, "even")
        with pytest.raises(RegimeMismatch):
            coset_epsilon_average_closed(spec3, 1, "quadratic")

    def test_rejects_every_regime_outside_eps_regimes(self):
        rejected = 0
        for p, k in ((3, 3), (3, 4), (5, 2), (5, 4), (5, 5), (7, 6)):
            m = modulus(p, k)
            for j in range(1, k):
                spec = CosetSpec(DirichletCharacter(m, 2), j, "even")
                for regime in ("linear", "quadratic"):
                    if regime in eps_regimes(p, k, j):
                        coset_epsilon_average_closed(spec, 1, regime)
                        continue
                    with pytest.raises(RegimeMismatch):
                        coset_epsilon_average_closed(spec, 1, regime)
                    rejected += 1
        assert rejected > 0

    def test_rejects_unknown_regime(self):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 2, "even")
        with pytest.raises(RegimeMismatch):
            coset_epsilon_average_closed(spec, 1, "cubic")

    def test_rejects_non_unit_twist(self):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 2, "even")
        with pytest.raises(PreconditionViolated):
            coset_epsilon_average(spec, [1, 10])

    def test_one_gauss_sum_per_member(self, monkeypatch):
        m = modulus(5, 4)
        spec = CosetSpec(DirichletCharacter(m, 2), 2, "even")
        twists = sample_units(np.random.default_rng(5), m.q, 5, 10)
        want = coset_epsilon_average(spec, twists)
        seen = []

        def counting(chi, n=1):
            seen.append(chi.c)
            return gauss_sum_brute(chi, n)

        monkeypatch.setattr(gauss_module, "gauss_sum_brute", counting)
        assert coset_epsilon_average(spec, twists) == want
        assert sorted(seen) == [eta.c for eta in enumerate_coset(spec)]
