"""Gauss sums mod p^k: brute force, one FFT for every character, closed
forms, and coset averages.

The closed forms collapse the full phi(q)-term sum to a single explicitly
indexed summand once k >= 2, with the logarithm parameter steering which
residue survives.  Averages of normalized Gauss sums over cosets of the
level-j subgroup then localize to delta conditions on that parameter, in
two regimes depending on where j sits relative to k/2 and k/3.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .characters import (
    CosetSpec,
    DirichletCharacter,
    character_sums,
    character_with_ell,
    classify_regime,
    enumerate_coset,
    even_family,
    generator_row,
    postnikov_ell,
)
from .errors import (
    NotPrimitive,
    PreconditionViolated,
    RegimeMismatch,
    UnsupportedRegime,
)
from .modular import (
    PrimePowerModulus,
    epsilon_q,
    jacobi_symbol,
    mod_inverse,
    phi_prime_power,
    reduce_mod,
    root_of_unity,
)


def _additive_row(m: PrimePowerModulus, n: int) -> np.ndarray:
    """e_q(n g^i) for i in [0, phi): the modulus's `power_roots` when
    n = 1, otherwise gathered from q_roots at n g^i mod q."""
    n %= m.q
    if n == 1:
        return m.power_roots
    return m.q_roots[reduce_mod(m.powers * n, m.q)]


def gauss_sum_brute(chi: DirichletCharacter, n: int = 1) -> complex:
    """Direct sum of chi(t) e_q(n t) over units t mod q, taken in generator
    order t = g^i as sum_i e(ci/phi) e_q(n g^i).

    Angles are reduced exactly in integers before the table lookup, so every
    term is a correctly rounded root of unity.
    """
    terms = generator_row(chi.modulus, chi.c)
    terms *= _additive_row(chi.modulus, n)
    return complex(terms.sum())


def gauss_sums(m: PrimePowerModulus, n: int = 1) -> np.ndarray:
    """tau(chi_c, n) for every exponent c in [0, phi), indexed by c.

    With the units in generator order t = g^i, chi_c(g^i) = e(ci/phi), so
    tau(chi_c, n) = sum_i e(ci/phi) e_q(n g^i) is one `character_sums`
    transform.  Each input term is an exactly reduced table root of unity,
    as in `gauss_sum_brute`; the only new rounding is the FFT's.
    """
    return character_sums(_additive_row(m, n))


def gauss_sum_odoni(chi: DirichletCharacter) -> complex:
    """Closed-form Gauss sum for primitive chi mod p^k, k >= 2.

    For k = 2n the sum collapses to p^n chi(t0) e_q(t0) at the single
    residue t0 = -ell mod p^n.  For k = 2n+1 (p >= 5 only) an extra
    quadratic Gauss factor appears.
    """
    m = chi.modulus
    p, k, q = m.p, m.k, m.q
    if k < 2:
        raise UnsupportedRegime("no closed form at k = 1")
    if k % 2 == 1 and p == 3:
        raise UnsupportedRegime("odd k needs p >= 5")
    if not chi.is_primitive:
        raise NotPrimitive("closed form needs a primitive character")
    ell = postnikov_ell(chi)
    n_half = k // 2
    pn = p**n_half
    t0 = (-ell) % pn
    core = chi(t0) * root_of_unity(t0, q)
    if k % 2 == 0:
        return pn * core
    w = (ell + t0) // pn  # integer: t0 = -ell mod p^n
    sign = jacobi_symbol(-2 * ell, p)
    corr = root_of_unity(mod_inverse(2 * ell, p) * w * w, p)
    return epsilon_q(p) * pn * math.sqrt(p) * sign * core * corr


def root_number(chi: DirichletCharacter) -> complex:
    """tau(chi) / (i^a q^(1/2)) with a the parity bit; modulus 1 if primitive."""
    m = chi.modulus
    tau = gauss_sum_brute(chi)
    eps = tau / math.sqrt(m.q)
    return eps if chi.is_even else eps / 1j


def gauss_ratio_check(
    chi1: DirichletCharacter, chi2: DirichletCharacter, m: int
) -> tuple[complex, complex]:
    """Both sides of tau(chi1, m)/tau(chi2, m) = (chi1 chibar2)(-ell_1 / m),
    as (brute, closed).

    Valid when both characters are primitive mod p^k and their ratio has
    conductor dividing p^ceil(k/2).
    """
    mod = chi1.modulus
    if mod != chi2.modulus:
        raise PreconditionViolated("characters must share a modulus")
    if not (chi1.is_primitive and chi2.is_primitive):
        raise NotPrimitive("ratio formula needs primitive characters")
    if m % mod.p == 0:
        raise PreconditionViolated(f"twist {m} shares a factor with {mod.q}")
    prod = chi1 * chi2.conjugate()
    half_up = mod.p ** ((mod.k + 1) // 2)
    if prod.conductor > half_up:
        raise PreconditionViolated(
            f"ratio conductor {prod.conductor} exceeds {half_up}"
        )
    brute = gauss_sum_brute(chi1, m) / gauss_sum_brute(chi2, m)
    ell1 = postnikov_ell(chi1)
    return brute, prod(-ell1 * mod_inverse(m, mod.q))


def near_one_root_number_check(
    m: PrimePowerModulus,
) -> list[tuple[DirichletCharacter, complex, complex]]:
    """Gauss sums on the coset pinned by ell = -1 mod p^n, k = 2n, as one
    (member, computed, closed) triple per member; every computed tau is read
    from one `gauss_sums` transform.

    Every member has tau = p^n e_q(1): the collapsed summand sits at t0 = 1
    and the character factor drops out.
    """
    if m.k % 2 != 0:
        raise PreconditionViolated("near-one construction needs even k")
    n_half = m.k // 2
    base = character_with_ell(m, m.p ** (m.k - 1) - 1)
    expected = m.p**n_half * root_of_unity(1, m.q)
    taus = gauss_sums(m)
    return [
        (psi, complex(taus[psi.c]), expected)
        for psi in enumerate_coset(CosetSpec(base, n_half, "all"))
    ]


def _require_unit_twist(spec: CosetSpec, m: int):
    p = spec.base.modulus.p
    if m % p == 0:
        raise PreconditionViolated(f"twist {m} not a unit mod {p}")


def coset_epsilon_average(spec: CosetSpec, twists: Sequence[int]) -> list[complex]:
    """Brute sum of eps(eta) conj(eta(m)) over the even coset members, one
    per twist m; each member's eps is computed once for all twists."""
    even_family(spec)
    for m in twists:
        _require_unit_twist(spec, m)
    rootq = math.sqrt(spec.base.modulus.q)
    terms = [(eta, gauss_sum_brute(eta) / rootq) for eta in enumerate_coset(spec)]
    return [
        complex(sum(eps * eta(m).conjugate() for eta, eps in terms))
        for m in twists
    ]


def eps_regimes(p: int, k: int, j: int) -> list:
    """Closed-form regimes of the coset epsilon average at level j mod p^k:
    linear in the thm11 window and quadratic in the thm12 window (p >= 5),
    both at k = 2j (`classify_regime`)."""
    window = classify_regime(k, j)
    out = []
    if window in ("thm11", "both"):
        out.append("linear")
    if window in ("thm12", "both") and p >= 5:
        out.append("quadratic")
    return out


def coset_epsilon_average_closed(spec: CosetSpec, m: int, regime: str) -> complex:
    """Closed form of the eps average in one of `eps_regimes(p, k, j)`.

    linear:   q^(1/2) phi(p^j)/(2 p^j) *
        sum_{±} e_q(±m) [ell = ∓m mod p^(k-j)]
    quadratic:   phi(p^j)/2 * (-2 ell|q) eps_q *
        sum_{±} e_q(±m) [ell = ∓m mod p^j] e_{p^(k-2j)}((2 ell)^(-1) w^2),
        w = (ell ± m)/p^j.
    """
    q0 = even_family(spec)
    _require_unit_twist(spec, m)
    mod = spec.base.modulus
    p, k, q, j = mod.p, mod.k, mod.q, spec.j
    if regime not in eps_regimes(p, k, j):
        raise RegimeMismatch(
            f"regime {regime!r} does not hold at (p, k, j) = ({p}, {k}, {j})"
        )
    ell = postnikov_ell(spec.base)
    size = phi_prime_power(p, j)
    if regime == "linear":
        total = 0j
        for sign in (1, -1):
            if (ell + sign * m) % (q // q0) == 0:
                total += root_of_unity(sign * m, q)
        return math.sqrt(q) * size / (2 * q0) * total
    big_q = q // q0 // q0
    total = 0j
    for sign in (1, -1):
        if (ell + sign * m) % q0 != 0:
            continue
        w = (ell + sign * m) // q0
        term = root_of_unity(sign * m, q)
        if big_q > 1:
            term *= root_of_unity(mod_inverse(2 * ell, big_q) * w * w, big_q)
        total += term
    return size / 2 * jacobi_symbol(-2 * ell, q) * epsilon_q(q) * total
