import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    character_with_ell,
    coset_exponents,
    enumerate_coset,
    postnikov_ell,
    primitive_exponents,
)
from cosetlfun.errors import (
    DegenerateConductor,
    InvalidModulus,
    NotPrimitive,
    PreconditionViolated,
)
from cosetlfun.modular import modulus, phi_prime_power, root_of_unity
from oracles import coset_exponents_oracle, value_table_oracle


def brute_conductor(chi: DirichletCharacter) -> int:
    """Smallest p^f with chi constant on units congruent mod p^f."""
    m = chi.modulus
    for f in range(m.k + 1):
        d = m.p**f
        ok = True
        for x in range(1, m.q):
            if x % m.p == 0:
                continue
            if x % d == 1 % d and abs(chi(x) - 1) > 1e-10:
                ok = False
                break
        if ok:
            return d
    raise AssertionError("character not periodic mod its own modulus")


class TestPhiPrimePower:
    def test_values(self):
        assert phi_prime_power(3, 0) == 1
        assert phi_prime_power(3, 1) == 2
        assert phi_prime_power(3, 4) == 54
        assert phi_prime_power(7, 2) == 42


class TestCharacterBasics:
    def test_exponent_reduced(self):
        m = modulus(3, 3)
        assert DirichletCharacter(m, 19).c == 1
        assert DirichletCharacter(m, -1).c == 17

    def test_value_on_generator(self):
        m = modulus(5, 2)
        chi = DirichletCharacter(m, 3)
        assert abs(chi(m.generator) - root_of_unity(3, 20)) < 1e-15

    def test_zero_off_units(self):
        m = modulus(3, 2)
        chi = DirichletCharacter(m, 1)
        for n in (0, 3, 6, 9, 12):
            assert chi(n) == 0

    def test_multiplicativity_exhaustive(self):
        m = modulus(3, 3)
        chi = DirichletCharacter(m, 5)
        for a in range(1, 27):
            for b in range(1, 27):
                assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-13

    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
    def test_multiplicativity_random(self, c, a, b):
        m = modulus(5, 3)
        chi = DirichletCharacter(m, c)
        assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12

    def test_parity(self):
        m = modulus(7, 2)
        for c in range(m.phi):
            chi = DirichletCharacter(m, c)
            want = 1 if c % 2 == 0 else -1
            assert abs(chi(-1) - want) < 1e-14
            assert chi.is_even == (c % 2 == 0)

    def test_periodicity(self):
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 7)
        for n in (1, 2, 50, 80):
            assert chi(n) == chi(n + m.q) == chi(n - 3 * m.q)

    def test_conductor_matches_brute(self):
        for p, k in ((3, 4), (5, 3)):
            m = modulus(p, k)
            for c in range(m.phi):
                chi = DirichletCharacter(m, c)
                assert chi.conductor == brute_conductor(chi), (p, k, c)

    def test_primitivity(self):
        m = modulus(3, 3)
        assert DirichletCharacter(m, 1).is_primitive
        assert DirichletCharacter(m, 2).is_primitive
        assert not DirichletCharacter(m, 3).is_primitive  # conductor 9
        assert not DirichletCharacter(m, 0).is_primitive
        assert DirichletCharacter(m, 0).conductor == 1
        assert DirichletCharacter(m, 0).is_principal

    def test_conjugate_and_product(self):
        m = modulus(5, 2)
        a = DirichletCharacter(m, 3)
        b = DirichletCharacter(m, 8)
        assert (a * b).c == 11
        assert a.conjugate().c == m.phi - 3
        for n in (2, 7, 13):
            assert abs(a.conjugate()(n) - a(n).conjugate()) < 1e-14
            assert abs((a * b)(n) - a(n) * b(n)) < 1e-14

    def test_product_needs_same_modulus(self):
        with pytest.raises(InvalidModulus):
            DirichletCharacter(modulus(3, 2), 1) * DirichletCharacter(
                modulus(3, 3), 1
            )

    def test_value_table_matches_call(self):
        m = modulus(7, 2)
        chi = DirichletCharacter(m, 11)
        table = chi.value_table()
        for n in range(m.q):
            assert abs(table[n] - chi(n)) < 1e-14

    @pytest.mark.parametrize("p, k", [(3, 1), (3, 11), (5, 6), (7, 4), (13, 2)])
    def test_value_table_bitwise_reference(self, p, k):
        # phi_roots[c * index_of(n) mod phi] per n, in Python integers; the
        # exponents near phi make c * index exceed 2^31 at 3^11
        m = modulus(p, k)
        index = [m.index_of(n) if n % p else None for n in range(m.q)]
        for c in sorted({1, m.phi // 2 + 1, m.phi - 1}):
            want = np.array(
                [0j if i is None else m.phi_roots[c * i % m.phi] for i in index]
            )
            got = DirichletCharacter(m, c).value_table()
            np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize(
        "p, k", [(3, 1), (3, 4), (5, 1), (5, 3), (7, 2), (11, 2)]
    )
    def test_value_table_matches_oracle_every_c(self, p, k):
        m = modulus(p, k)
        for c in range(-m.phi, m.phi):
            chi = DirichletCharacter(m, c)
            want = value_table_oracle(chi)
            got = chi.value_table()
            np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))

    @given(
        pk=st.sampled_from([(3, 2), (3, 5), (5, 2), (7, 3), (13, 2)]),
        c=st.integers(-(10**12), 10**12),
    )
    def test_value_table_matches_oracle_any_c(self, pk, c):
        chi = DirichletCharacter(modulus(*pk), c)
        want = value_table_oracle(chi)
        got = chi.value_table()
        np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))


class TestPostnikovEll:
    def test_defining_identity_exhaustive(self):
        # chi(1 + p*x) = e_q(ell * log(1+p*x)) for every 1-unit
        for p, k in ((3, 4), (5, 3), (7, 2)):
            m = modulus(p, k)
            from cosetlfun.modular import padic_log

            for c in (1, 2, p + 1, m.phi - 1, 2 * p):
                chi = DirichletCharacter(m, c)
                ell = postnikov_ell(chi)
                for x in range(m.q // p):
                    n = (1 + p * x) % m.q
                    lhs = chi(n)
                    rhs = root_of_unity(ell * p * padic_log(n, m), m.q)
                    assert abs(lhs - rhs) < 1e-12, (p, k, c, n)

    def test_additive_in_exponent(self):
        m = modulus(3, 5)
        pk1 = 3**4
        for c1, c2 in ((1, 7), (5, 11), (2, 40)):
            e1 = postnikov_ell(DirichletCharacter(m, c1))
            e2 = postnikov_ell(DirichletCharacter(m, c2))
            e12 = postnikov_ell(DirichletCharacter(m, c1 + c2))
            assert e12 == (e1 + e2) % pk1

    def test_needs_k_at_least_two(self):
        with pytest.raises(DegenerateConductor):
            postnikov_ell(DirichletCharacter(modulus(5, 1), 1))

    def test_unit_ell_iff_primitive(self):
        m = modulus(3, 4)
        for c in range(1, m.phi):
            chi = DirichletCharacter(m, c)
            ell = postnikov_ell(chi)
            assert (ell % 3 != 0) == chi.is_primitive


class TestCharacterWithEll:
    def test_roundtrip(self):
        for p, k in ((3, 4), (5, 3)):
            m = modulus(p, k)
            for ell in range(p ** (k - 1)):
                chi = character_with_ell(m, ell)
                assert postnikov_ell(chi) == ell

    def test_parity_pick(self):
        m = modulus(3, 4)
        for ell in (1, 2, 5, 26):
            even = character_with_ell(m, ell, even=True)
            odd = character_with_ell(m, ell, even=False)
            assert even.is_even and not odd.is_even
            assert postnikov_ell(even) == postnikov_ell(odd) == ell

    def test_needs_k_at_least_two(self):
        with pytest.raises(DegenerateConductor):
            character_with_ell(modulus(3, 1), 0)


class TestCosets:
    def test_subgroup_size_and_step(self):
        m = modulus(3, 4)
        base = DirichletCharacter(m, 1)
        spec = CosetSpec(base, 2)
        members = enumerate_coset(spec)
        assert len(members) == 6
        # every member differs from the base by a multiple of p^(k-j)
        for chi in members:
            assert (chi.c - base.c) % 3 ** (4 - 2) == 0

    def test_members_share_ell_mod_quotient(self):
        m = modulus(3, 4)
        spec = CosetSpec(DirichletCharacter(m, 7), 2)
        ells = {postnikov_ell(chi) % 3 ** (4 - 2) for chi in enumerate_coset(spec)}
        assert len(ells) == 1

    def test_parity_filter(self):
        m = modulus(5, 3)
        base = DirichletCharacter(m, 2)
        all_members = enumerate_coset(CosetSpec(base, 2, "all"))
        even = enumerate_coset(CosetSpec(base, 2, "even"))
        odd = enumerate_coset(CosetSpec(base, 2, "odd"))
        assert len(all_members) == 20
        assert len(even) == len(odd) == 10
        assert all(chi.is_even for chi in even)
        assert not any(chi.is_even for chi in odd)
        assert sorted(c.c for c in even + odd) == [c.c for c in all_members]

    def test_sorted_and_deduplicated(self):
        m = modulus(3, 3)
        members = enumerate_coset(CosetSpec(DirichletCharacter(m, 1), 1))
        cs = [chi.c for chi in members]
        assert cs == sorted(cs)
        assert len(set(cs)) == len(cs)

    def test_level_zero_is_singleton(self):
        m = modulus(3, 4)
        base = DirichletCharacter(m, 5)
        members = enumerate_coset(CosetSpec(base, 0))
        assert len(members) == 1
        assert members[0].c == 5

    def test_level_k_is_all_with_full_history(self):
        # j = k covers every character whose exponent matches base mod 1,
        # i.e. the full dual group
        m = modulus(5, 2)
        members = enumerate_coset(CosetSpec(DirichletCharacter(m, 1), 2))
        assert len(members) == m.phi

    @given(
        pk=st.sampled_from([(3, 1), (3, 2), (3, 4), (5, 3), (7, 2), (11, 2)]),
        c=st.integers(1, 10**6),
    )
    def test_exponents_match_sorted_generator(self, pk, c):
        m = modulus(*pk)
        exponents = list(primitive_exponents(m))
        base = DirichletCharacter(m, exponents[c % len(exponents)])
        for j in range(m.k + 1):
            for parity in ("all", "even", "odd"):
                spec = CosetSpec(base, j, parity)
                assert coset_exponents(spec) == coset_exponents_oracle(spec)

    def test_rejects_bad_level(self):
        base = DirichletCharacter(modulus(3, 3), 1)
        for j in (-1, 4):
            with pytest.raises(PreconditionViolated):
                CosetSpec(base, j)

    def test_rejects_bad_parity(self):
        base = DirichletCharacter(modulus(3, 3), 1)
        with pytest.raises(PreconditionViolated):
            CosetSpec(base, 1, "weird")

    def test_rejects_imprimitive_base(self):
        with pytest.raises(NotPrimitive):
            CosetSpec(DirichletCharacter(modulus(3, 3), 3), 1)
