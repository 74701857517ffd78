"""Central values of Dirichlet L-functions on the critical line.

The primary route decomposes L(s, chi) over Hurwitz zetas at rationals,
each evaluated by Euler-Maclaurin with a monitored tail bound.  A second,
deliberately different route sums the Dirichlet series directly with
iterated Abel summation; the two are never merged, so each can check the
other.  All analytic constants (Bernoulli numbers, Euler's constant, the
digamma value entering the moment main term) are computed here from their
defining series, not pasted in as literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter
from .errors import PoleAtOne, PreconditionViolated, PrincipalCharacter

_EM_TAIL_TARGET = 2**-52  # one ulp of 1
_EM_BERNOULLI_TERMS = 15  # uses B_2 .. B_30, bound from B_32
# One shift term costs about 5.5 us of numpy dispatch plus 80-140 ns per grid
# point (measured on a 2-core host, numpy 2.4), so n_shift * (len(x) + 64)
# prices the shift in units of about 85 ns; 2^27 of them is about 11 s.  The
# shift grows like |t|/2, so this refuses |t| beyond about 4e6 on one point
# and 4.5e3 on a 3^10 grid.
_EM_MAX_SHIFT_WORK = 2**27


@lru_cache(maxsize=1)
def _bernoulli_fractions() -> tuple:
    """B_0 .. B_32 (even index convention B_1 = -1/2) as exact fractions."""
    n_max = 2 * _EM_BERNOULLI_TERMS + 2
    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b[m] = -acc / (m + 1)
    return tuple(b)


def bernoulli_even(j: int) -> float:
    """B_{2j} as a double."""
    return float(_bernoulli_fractions()[2 * j])


@lru_cache(maxsize=1)
def euler_gamma() -> float:
    """Euler's constant from H_N - log N with an Euler-Maclaurin tail."""
    n = 32
    h = math.fsum(1.0 / i for i in range(1, n + 1))
    g = h - math.log(n) - 1.0 / (2 * n)
    for j in range(1, 8):
        g += bernoulli_even(j) / (2 * j * n ** (2 * j))
    return g


def digamma(x: float) -> float:
    """Digamma for real x > 0: recurrence up to x >= 24, then asymptotics."""
    if x <= 0:
        raise PreconditionViolated(f"digamma needs x > 0, got {x}")
    shift = 0.0
    while x < 24:
        shift += 1.0 / x
        x += 1
    val = math.log(x) - 1.0 / (2 * x)
    for j in range(1, 8):
        val -= bernoulli_even(j) / (2 * j * x ** (2 * j))
    return val - shift


@lru_cache(maxsize=1)
def _em_coefficients() -> tuple:
    # B_{2j}/(2j)! for j = 1..J, plus |B_{2J+2}|/(2J+2)! for the tail bound
    fr = _bernoulli_fractions()
    coefs = tuple(
        float(fr[2 * j] / math.factorial(2 * j))
        for j in range(1, _EM_BERNOULLI_TERMS + 1)
    )
    top = 2 * _EM_BERNOULLI_TERMS + 2
    return coefs, abs(float(fr[top] / math.factorial(top)))


def em_shift(s: complex, x_min: float, cost_per_term: int) -> tuple[int, float]:
    """The least Euler-Maclaurin shift n whose tail bound at x_min meets
    `_EM_TAIL_TARGET`, with the bound at n.  One shift term costs
    `cost_per_term` point-terms (grid points plus 64 per grid); a shift whose
    cost exceeds `_EM_MAX_SHIFT_WORK` is refused before anything is summed.
    """
    _, tail_coef = _em_coefficients()
    # |R_J| <= |B_{2J+2}/(2J+2)!| |(s)_{2J+2}| w^(-e)/e, e = sigma + 2J + 1,
    # solved for the least w that meets the target
    top = 2 * _EM_BERNOULLI_TERMS + 2
    e = s.real + top - 1
    c = tail_coef * math.prod(abs(s + i) for i in range(top)) / e
    shift = (c / _EM_TAIL_TARGET) ** (1 / e) - x_min  # inf once c overflows
    if not shift * cost_per_term <= _EM_MAX_SHIFT_WORK:
        raise PreconditionViolated(
            f"Euler-Maclaurin shift of {shift:.3g} terms at |s| = {abs(s):.3g}, "
            f"{cost_per_term} point-terms each, exceeds the cap of {_EM_MAX_SHIFT_WORK}"
        )
    n_shift = max(0, math.ceil(shift))
    return n_shift, c * (n_shift + x_min) ** -e


def _em_hurwitz(s: complex, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Euler-Maclaurin Hurwitz zeta on an array of x > 0, with tail bound.

    The shift n is the least one whose tail bound at min(x) meets
    `_EM_TAIL_TARGET`; the returned bound is the one at that shift.
    """
    s = complex(s)
    if s == 1:
        raise PoleAtOne("Hurwitz zeta has its pole at s = 1")
    if s.real <= 0:
        raise PreconditionViolated("need Re(s) > 0")
    coefs, _ = _em_coefficients()
    n_shift, bound = em_shift(s, float(x.min()), x.size + 64)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for n in range(n_shift):
        acc += (n + x) ** (-s)
    w = n_shift + x
    acc += w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)
    wpow = w ** (-s - 1)
    w2 = w * w
    rising = complex(s)  # (s)_{2j-1} tracked incrementally
    for j, coef in enumerate(coefs, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        acc += coef * rising * wpow
        wpow = wpow / w2
    return acc, bound


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta(s, x) = sum over n >= 0 of (n + x)^(-s), for Re(s) > 0, s != 1."""
    if x <= 0:
        raise PreconditionViolated(f"need x > 0, got {x}")
    vals, _ = _em_hurwitz(s, np.array([float(x)]))
    return complex(vals[0])


# each caller runs every character at one (q, t) before the next (q, t)
@lru_cache(maxsize=1)
def _zeta_grid(q: int, t: float) -> tuple[np.ndarray, float, float]:
    """zeta(1/2 + it, a/q) for a = 1..q, the shared grid for one modulus.

    Returns (values, uniform tail bound, sum of |values|), the last for
    rounding-error accounting.
    """
    s = 0.5 + 1j * t
    x = np.arange(1, q + 1, dtype=np.float64) / q
    vals, bound = _em_hurwitz(s, x)
    vals.setflags(write=False)
    return vals, bound, float(np.abs(vals).sum())


@dataclass(frozen=True)
class LValue:
    """A central-line value with its accumulated error bound."""

    chi: DirichletCharacter
    s: complex
    value: complex
    abs_error_bound: float


def l_value(chi: DirichletCharacter, t: float = 0.0) -> LValue:
    """L(1/2 + it, chi) = q^(-s) sum_a chi(a) zeta(s, a/q), a = 1..q."""
    if chi.is_principal:
        raise PrincipalCharacter("central values here are for chi != chi_0")
    m = chi.modulus
    s = 0.5 + 1j * float(t)
    zg, tail, abs_sum = _zeta_grid(m.q, float(t))
    chivals = chi.value_table()
    # a runs over 1..q-1; chi(q) = 0 kills the endpoint
    total = complex((chivals[1:] * zg[:-1]).sum())
    scale = abs(m.q ** (-s))
    rounding = (math.log2(m.q) + 4) * 2**-52 * abs_sum
    bound = scale * (m.phi * tail + rounding)
    return LValue(chi, s, m.q ** (-s) * total, bound)


def l_series_oracle(
    chi: DirichletCharacter,
    t: float = 0.0,
    terms: int = 100_000,
    depth: int = 3,
) -> complex:
    """Dirichlet series route: iterated Abel summation of sum chi(n) n^(-s).

    After `depth` summations by parts the remaining series has terms of
    size n^(-1/2 - depth); the periodic partial-sum tables and the boundary
    contributions are exact, so this shares no code with the Hurwitz route.
    """
    if chi.is_principal:
        raise PrincipalCharacter("series oracle needs chi != chi_0")
    q = chi.modulus.q
    s = 0.5 + 1j * float(t)
    w = chi.value_table()  # index n mod q
    period = w[np.arange(1, q + 1) % q]  # coefficients at n = 1..q
    means = []
    table = period
    for _ in range(depth):
        sums = np.cumsum(table)
        mu = complex(sums.sum()) / q
        means.append(mu)
        table = sums - mu
    f = np.arange(1, terms + depth + 1, dtype=np.float64) ** (-s)
    total = 0j
    for r, mu in enumerate(means):
        # Delta^r f(1), the boundary term of the r-th summation by parts
        delta_r = f[: r + 1] if r == 0 else (-1) ** r * np.diff(f[: r + 1], r)
        total += mu * complex(delta_r[0])
    diffs = (-1) ** depth * np.diff(f, depth)
    idx = np.arange(terms) % q
    total += complex((table[idx] * diffs[:terms]).sum())
    return total


def completed_l_value(chi: DirichletCharacter) -> complex:
    """(q/pi)^((s+a)/2) Gamma((s+a)/2) L(s, chi) at the central point s = 1/2."""
    if not chi.is_primitive:
        raise PreconditionViolated("completed form needs a primitive character")
    a = 0 if chi.is_even else 1
    q = chi.modulus.q
    half = (0.5 + a) / 2
    return (q / math.pi) ** half * math.gamma(half) * l_value(chi).value


def functional_equation_residual(chi: DirichletCharacter) -> float:
    """|Lambda(1/2, chi) - eps(chi) Lambda(1/2, chibar)|, zero in exact math."""
    from .gauss import root_number

    eps = root_number(chi)
    return abs(completed_l_value(chi) - eps * completed_l_value(chi.conjugate()))
