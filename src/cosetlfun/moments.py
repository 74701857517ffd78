"""Second-moment predictions for central L-values along cosets.

The moment of |L(1/2)|^2 over the even part of a level-j coset splits into
a diagonal main term plus a secondary term steered by the minimal lifts of
the base character's logarithm parameter.  Two prediction windows overlap
at k = 2j, where the two secondary formulas agree exactly (and are made to
agree bit-for-bit in doubles here).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characters import (
    CosetSpec,
    DirichletCharacter,
    classify_regime,
    enumerate_coset,
    even_family,
    postnikov_ell,
    proper_level,
)
from .errors import DegenerateConductor, RegimeMismatch
from .gauss import eps_regimes
from .lcentral import digamma, euler_gamma, l_value
from .modular import (
    PrimePowerModulus,
    divisor_count,
    jacobi_symbol,
    mod_inverse,
    phi_prime_power,
    signed_lift,
)


class RecipeParams(NamedTuple):
    """Minimal lifts of the logarithm parameter and the prediction window:
    one row of the recipe table, in report-column order."""

    q: int
    q0: int
    chi_exponent: int
    ell: int
    a_chi: int
    b_chi: int
    regime: str  # thm11 | thm12 | both | none


def recipe_params(chi: DirichletCharacter, j: int) -> RecipeParams:
    """Signed minimal lifts a (mod p^(k-j)) and b (mod p^j) of ell."""
    m = chi.modulus
    if m.k < 2:
        raise DegenerateConductor("recipe needs k >= 2")
    q0 = even_family(CosetSpec(chi, j, "even"))
    ell = postnikov_ell(chi)
    a = signed_lift(ell, m.q // q0)
    b = signed_lift(a, q0)
    return RecipeParams(m.q, q0, chi.c, ell, a, b, classify_regime(m.k, j))


def predict_D(m: PrimePowerModulus, j: int) -> float:
    """Diagonal main term of the even-coset second moment at level j."""
    proper_level(m, j)
    q, p = m.q, m.p
    bracket = (
        math.log(q)
        + 2 * euler_gamma()
        + digamma(0.25)
        - math.log(math.pi)
        + 2 * math.log(p) / (p - 1)
    )
    return phi_prime_power(p, j) / 2 * (m.phi / q) * bracket


def predict_A(chi: DirichletCharacter, j: int) -> float:
    """Secondary term where `eps_regimes` is linear: the window j < k <= 2j.

    (phi(q0)/q0) q^(1/2) d(|a|)/|a|^(1/2).
    """
    params, m = recipe_params(chi, j), chi.modulus
    if "linear" not in eps_regimes(m.p, m.k, j):
        raise RegimeMismatch(f"window {params.regime} does not give this term")
    return _secondary_A(m, j, params)


def _secondary_A(m: PrimePowerModulus, j: int, params: RecipeParams) -> float:
    abs_a = abs(params.a_chi)
    lead = phi_prime_power(m.p, j) * math.sqrt(m.q) / params.q0
    return lead * (divisor_count(abs_a) / math.sqrt(abs_a))


def predict_A_prime(chi: DirichletCharacter, j: int) -> float:
    """Secondary term where `eps_regimes` is quadratic: 2j <= k <= 3j, p >= 5.

    (2a|q) phi(q0) d(|b|)/|b|^(1/2) times cos (q = 1 mod 4) or sin
    (q = 3 mod 4) of 2 pi (2a)^(-1) (a-b)^2 / q.  At k = 2j this reduces,
    bit for bit, to the other window's term.
    """
    params, m = recipe_params(chi, j), chi.modulus
    if "quadratic" not in eps_regimes(m.p, m.k, j):
        raise RegimeMismatch(f"window {params.regime} at p = {m.p} gives no such term")
    return _secondary_A_prime(m, j, params)


def _secondary_A_prime(m: PrimePowerModulus, j: int, params: RecipeParams) -> float:
    a, b = params.a_chi, params.b_chi
    abs_b = abs(b)
    jac = jacobi_symbol(2 * a, m.q)
    angle_num = mod_inverse(2 * a, m.q) * (a - b) * (a - b) % m.q
    trig = math.cos if m.q % 4 == 1 else math.sin
    phase = trig(2 * math.pi * angle_num / m.q)
    return (jac * phi_prime_power(m.p, j)) * (
        divisor_count(abs_b) / math.sqrt(abs_b)
    ) * phase


class MomentPrediction(NamedTuple):
    """Main term, secondary term and error scale for one coset."""

    D: float
    secondary: float
    error_scale: float
    params: RecipeParams


def predict_moment(chi: DirichletCharacter, j: int) -> MomentPrediction:
    """The closed form of the coset epsilon average (`eps_regimes`) picks the
    secondary term and the size of the theorem's error term."""
    params = recipe_params(chi, j)
    m = chi.modulus
    q0 = params.q0
    regimes = eps_regimes(m.p, m.k, j)
    if "linear" in regimes:
        # at k = 2j both windows' terms agree; this one also covers p = 3
        secondary = _secondary_A(m, j, params)
        scale = m.q ** (-0.125) * q0
    elif "quadratic" in regimes:
        secondary = _secondary_A_prime(m, j, params)
        scale = q0 ** (-0.25) * math.sqrt(m.q)
    else:
        raise RegimeMismatch(f"(k, j) = ({m.k}, {j}) fits no window at p = {m.p}")
    return MomentPrediction(
        D=predict_D(m, j),
        secondary=secondary,
        error_scale=scale,
        params=params,
    )


class EmpiricalMoment(NamedTuple):
    value: float
    error_bound: float
    members: int


def empirical_coset_moment(spec: CosetSpec) -> EmpiricalMoment:
    """sum of |L(1/2, eta)|^2 over the even coset members."""
    even_family(spec)
    total = 0.0
    bound = 0.0
    members = enumerate_coset(spec)
    for eta in members:
        lv = l_value(eta, 0.0)
        total += abs(lv.value) ** 2
        bound += 2 * abs(lv.value) * lv.abs_error_bound + lv.abs_error_bound**2
    return EmpiricalMoment(total, bound, len(members))


class MomentReport(NamedTuple):
    """One row of the moment verification table, in report-column order:
    the recipe row (`RecipeParams`), then the moment's own columns."""

    q: int
    q0: int
    chi_exponent: int
    ell: int
    a_chi: int
    b_chi: int
    regime: str
    empirical: float
    D: float
    A: float
    residual: float
    baseline_residual: float
    error_scale: float


def moment_report(chi: DirichletCharacter, j: int) -> MomentReport:
    """Empirical vs predicted second moment for the coset of chi at level j."""
    pred = predict_moment(chi, j)
    emp = empirical_coset_moment(CosetSpec(chi, j, "even"))
    return MomentReport(
        *pred.params,
        empirical=emp.value,
        D=pred.D,
        A=pred.secondary,
        residual=emp.value - pred.D - pred.secondary,
        baseline_residual=emp.value - pred.D,
        error_scale=pred.error_scale,
    )
