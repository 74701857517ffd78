import math
from types import SimpleNamespace

import numpy as np
import pytest

from cosetlfun import moments
from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    character_with_ell,
    classify_regime,
    enumerate_coset,
    postnikov_ell,
)
from cosetlfun.errors import (
    DegenerateConductor,
    NotPrimitive,
    OddCharacter,
    PreconditionViolated,
    RegimeMismatch,
)
from cosetlfun.lcentral import digamma, euler_gamma
from cosetlfun.modular import (
    divisor_count,
    jacobi_symbol,
    mod_inverse,
    modulus,
    signed_lift,
)
from cosetlfun.moments import (
    RecipeParams,
    empirical_coset_moment,
    moment_report,
    predict_A,
    predict_A_prime,
    predict_D,
    predict_moment,
    recipe_params,
)
from oracles import l_series_oracle, secondary_terms_oracle


class TestClassifyRegime:
    def test_table(self):
        assert classify_regime(4, 2) == "both"
        assert classify_regime(5, 3) == "thm11"
        assert classify_regime(5, 4) == "thm11"
        assert classify_regime(7, 4) == "thm11"
        assert classify_regime(3, 1) == "thm12"
        assert classify_regime(7, 3) == "thm12"
        assert classify_regime(9, 3) == "thm12"
        assert classify_regime(4, 1) == "none"
        assert classify_regime(10, 3) == "none"
        assert classify_regime(2, 2) == "none"  # k = j falls outside both


class TestRecipeParams:
    def test_lift_congruences_exhaustive(self):
        for p, k, j in ((3, 4, 2), (3, 5, 2), (5, 3, 1)):
            m = modulus(p, k)
            for c in range(2, m.phi, 2):
                if c % p == 0:
                    continue
                chi = DirichletCharacter(m, c)
                params = recipe_params(chi, j)
                ell = postnikov_ell(chi)
                assert params.ell == ell
                # a is the signed minimal lift of ell mod p^(k-j)
                assert (params.a_chi - ell) % p ** (k - j) == 0
                assert 2 * abs(params.a_chi) < p ** (k - j)
                # b is the signed minimal lift of a mod p^j
                assert (params.b_chi - params.a_chi) % p**j == 0
                assert 2 * abs(params.b_chi) < p**j
                assert params.q0 == p**j
                assert params.regime == classify_regime(k, j)

    def test_constant_on_coset(self):
        # every member of chi H_{p^j} (even part) produces the same lifts
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 2)
        want = recipe_params(chi, 2)
        for eta in enumerate_coset(CosetSpec(chi, 2, "even")):
            got = recipe_params(eta, 2)
            assert (got.a_chi, got.b_chi) == (want.a_chi, want.b_chi)

    def test_requested_ell_comes_back(self):
        # build the character from ell = 1 and read the lifts: a = b = 1
        m = modulus(5, 6)
        chi = character_with_ell(m, 1, even=True)
        params = recipe_params(chi, 2)
        assert params.a_chi == 1
        assert params.b_chi == 1

    def test_negative_ell_lift(self):
        m = modulus(5, 6)
        chi = character_with_ell(m, 5**5 - 2, even=True)  # ell = -2
        params = recipe_params(chi, 2)
        assert params.a_chi == -2
        assert params.b_chi == -2

    def test_preconditions(self):
        m = modulus(3, 4)
        with pytest.raises(OddCharacter):
            recipe_params(DirichletCharacter(m, 1), 2)
        with pytest.raises(NotPrimitive):
            recipe_params(DirichletCharacter(m, 6), 2)
        with pytest.raises(PreconditionViolated):
            recipe_params(DirichletCharacter(m, 2), 0)
        with pytest.raises(PreconditionViolated):
            recipe_params(DirichletCharacter(m, 2), 4)
        with pytest.raises(DegenerateConductor):
            recipe_params(DirichletCharacter(modulus(3, 1), 0), 1)


class TestPredictD:
    def test_independent_evaluation(self):
        # rebuild the bracket from scratch with mpmath-free constants
        for p, k, j in ((3, 4, 2), (5, 4, 2), (7, 3, 2)):
            m = modulus(p, k)
            q = p**k
            bracket = (
                math.log(q)
                + 2 * euler_gamma()
                + digamma(0.25)
                - math.log(math.pi)
                + 2 * math.log(p) / (p - 1)
            )
            phi_q0 = p ** (j - 1) * (p - 1)
            want = phi_q0 / 2 * (m.phi / q) * bracket
            assert predict_D(m, j) == pytest.approx(want, rel=1e-15)

    def test_scales_linearly_in_subgroup_size(self):
        m = modulus(5, 4)
        assert predict_D(m, 2) / predict_D(m, 1) == pytest.approx(5.0, rel=1e-13)

    def test_positive_on_working_grids(self):
        for p, k in ((3, 4), (3, 6), (5, 4), (5, 6), (7, 4)):
            m = modulus(p, k)
            for j in range(1, k):
                assert predict_D(m, j) > 0

    def test_level_bounds(self):
        with pytest.raises(PreconditionViolated):
            predict_D(modulus(3, 4), 0)
        with pytest.raises(PreconditionViolated):
            predict_D(modulus(3, 4), 4)


class TestPredictA:
    def test_unit_lift_closed_value(self):
        # |a| = 1 gives d(1)/sqrt(1) = 1: A = phi(q0)/q0 * sqrt(q)
        m = modulus(5, 6)
        chi = character_with_ell(m, 1, even=True)
        got = predict_A(chi, 3)
        want = (4 * 25 / 125) * math.sqrt(5**6)
        assert got == pytest.approx(want, rel=1e-14)

    def test_divisor_factor(self):
        # ell = 6: d(6)/sqrt(6) with 4 divisors
        m = modulus(5, 6)
        chi = character_with_ell(m, 6, even=True)
        got = predict_A(chi, 3)
        want = (100 / 125) * math.sqrt(5**6) * 4 / math.sqrt(6)
        assert got == pytest.approx(want, rel=1e-14)

    def test_sign_of_lift_irrelevant_without_phase(self):
        m = modulus(3, 5)
        plus = character_with_ell(m, 2, even=True)
        minus = character_with_ell(m, 3**4 - 2, even=True)
        assert predict_A(plus, 3) == predict_A(minus, 3)

    def test_regime_guard(self):
        m = modulus(3, 5)
        chi = DirichletCharacter(m, 2)
        with pytest.raises(RegimeMismatch):
            predict_A(chi, 1)  # k > 2j: wrong window


class TestPredictAPrime:
    def test_matches_independent_formula(self):
        # re-derive from scratch: (2a|q) phi(q0) d(|b|)/sqrt(|b|) trig(...)
        m = modulus(5, 6)
        q = m.q
        for ell in (1, 2, 7, 5**5 - 3):
            chi = character_with_ell(m, ell, even=True)
            params = recipe_params(chi, 2)
            a, b = params.a_chi, params.b_chi
            trig = math.cos if q % 4 == 1 else math.sin
            inv2a = pow(2 * a, -1, q)
            want = (
                jacobi_symbol(2 * a, q)
                * 20
                * divisor_count(abs(b))
                / math.sqrt(abs(b))
                * trig(2 * math.pi * (inv2a * (a - b) ** 2 % q) / q)
            )
            assert predict_A_prime(chi, 2) == pytest.approx(want, rel=1e-12)

    def test_needs_p_at_least_five(self):
        m = modulus(3, 6)
        chi = DirichletCharacter(m, 2)
        with pytest.raises(RegimeMismatch):
            predict_A_prime(chi, 2)

    def test_regime_guard(self):
        m = modulus(5, 6)
        chi = DirichletCharacter(m, 2)
        with pytest.raises(RegimeMismatch):
            predict_A_prime(chi, 4)  # k < 2j: wrong window

    def test_collapses_to_A_bitwise_at_k_equals_2j(self):
        m = modulus(5, 4)
        count = 0
        for c in range(2, m.phi, 2):
            if c % 5 == 0:
                continue
            chi = DirichletCharacter(m, c)
            assert predict_A(chi, 2) == predict_A_prime(chi, 2)
            count += 1
        assert count == 200


class TestEmpiricalMoment:
    def test_singleton_coset(self):
        # j = 1 at p = 3: the even coset is just chi itself
        from cosetlfun.lcentral import l_value

        m = modulus(3, 4)
        chi = DirichletCharacter(m, 2)
        spec = CosetSpec(chi, 1, "even")
        emp = empirical_coset_moment(spec)
        assert emp.members == 1
        assert emp.value == pytest.approx(
            abs(l_value(chi).value) ** 2, rel=1e-14
        )

    def test_against_series_oracle(self):
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 2)
        emp = empirical_coset_moment(CosetSpec(chi, 2, "even"))
        want = sum(
            abs(l_series_oracle(eta)) ** 2
            for eta in enumerate_coset(CosetSpec(chi, 2, "even"))
        )
        assert emp.value == pytest.approx(want, rel=1e-9)
        assert emp.members == 3

    def test_nonnegative_and_bounded_error(self):
        m = modulus(5, 4)
        emp = empirical_coset_moment(CosetSpec(DirichletCharacter(m, 2), 2, "even"))
        assert emp.value > 0
        assert emp.error_bound < 1e-8

    def test_parity_preconditions(self):
        m = modulus(5, 4)
        with pytest.raises(PreconditionViolated):
            empirical_coset_moment(CosetSpec(DirichletCharacter(m, 2), 2, "all"))
        with pytest.raises(OddCharacter):
            empirical_coset_moment(CosetSpec(DirichletCharacter(m, 3), 2, "even"))
        # the proper level 1 <= j < k: j = k would average the principal
        # character, and j = 0 is the base alone
        for j in (0, 4):
            with pytest.raises(PreconditionViolated):
                empirical_coset_moment(CosetSpec(DirichletCharacter(m, 2), j, "even"))


class TestMomentReport:
    def test_row_arithmetic(self):
        m = modulus(5, 4)
        chi = DirichletCharacter(m, 2)
        row = moment_report(chi, 2)
        assert row.regime == "both"
        assert row.residual == pytest.approx(
            row.empirical - row.D - row.A, abs=1e-12
        )
        assert row.baseline_residual == pytest.approx(
            row.empirical - row.D, abs=1e-12
        )
        assert row.error_scale == pytest.approx((5**4) ** -0.125 * 25, rel=1e-12)
        d = row._asdict()
        assert list(d) == [
            "q", "q0", "chi_exponent", "ell", "a_chi", "b_chi", "regime",
            "empirical", "D", "A", "residual", "baseline_residual",
            "error_scale",
        ]

    def test_conjugate_coset_same_moment(self):
        # emp(a) = emp(-a): conjugating every member preserves |L|^2
        m = modulus(3, 4)
        plus = character_with_ell(m, 2, even=True)
        minus = character_with_ell(m, 3**3 - 2, even=True)
        r1 = moment_report(plus, 2)
        r2 = moment_report(minus, 2)
        assert r1.empirical == pytest.approx(r2.empirical, rel=1e-12)
        assert r1.A == r2.A
        assert r1.a_chi == -r2.a_chi

    def test_regime_none_rejected(self):
        m = modulus(3, 4)
        chi = DirichletCharacter(m, 2)
        with pytest.raises(RegimeMismatch):
            moment_report(chi, 1)  # (k, j) = (4, 1) fits no window

    def test_predict_moment_populates_windows(self):
        # k = 2j takes the first window's term for p = 3 and p = 5 alike
        for p in (3, 5):
            chi = DirichletCharacter(modulus(p, 4), 2)
            assert predict_moment(chi, 2).secondary == predict_A(chi, 2)
        chi = DirichletCharacter(modulus(5, 3), 2)  # thm12
        assert predict_moment(chi, 1).secondary == predict_A_prime(chi, 1)

    def test_error_scale_formulas(self):
        chi = DirichletCharacter(modulus(3, 5), 2)
        assert predict_moment(chi, 3).error_scale == pytest.approx(
            (3**5) ** -0.125 * 27, rel=1e-13
        )
        chi = DirichletCharacter(modulus(5, 5), 2)
        assert predict_moment(chi, 2).error_scale == pytest.approx(
            25**-0.25 * math.sqrt(5**5), rel=1e-13
        )
        with pytest.raises(RegimeMismatch, match=r"\(k, j\) = \(4, 1\) fits no window"):
            predict_moment(DirichletCharacter(modulus(3, 4), 2), 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_secondary_terms_follow_the_window_table(p, monkeypatch):
    # every (k, j) with 2 <= k <= 9: each function gives the term, or raises,
    # where the windows once stated in moments.py say.  The recipe parameters
    # and the terms are stubbed, so no modulus is built (7^9 would need GBs)
    def params(chi, j):
        m = chi.modulus
        return RecipeParams(m.q, m.p**j, 1, 1, 1, 1, classify_regime(m.k, j))

    monkeypatch.setattr(moments, "recipe_params", params)
    monkeypatch.setattr(moments, "_secondary_A", lambda *args: "A")
    monkeypatch.setattr(moments, "_secondary_A_prime", lambda *args: "A'")
    def moment_term(chi, j):
        return predict_moment(chi, j).secondary

    calls = (predict_A, predict_A_prime, moment_term)
    for k in range(2, 10):
        m = SimpleNamespace(p=p, k=k, q=p**k, phi=(p - 1) * p ** (k - 1))
        chi = SimpleNamespace(modulus=m)
        for j in range(1, k):
            got = []
            for call in calls:
                try:
                    got.append(call(chi, j))
                except RegimeMismatch:
                    got.append(None)
            assert tuple(got) == secondary_terms_oracle(p, k, j), (p, k, j)
