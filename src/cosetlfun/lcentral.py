"""Central values of Dirichlet L-functions on the critical line.

L(s, chi) is decomposed over Hurwitz zetas at rationals, each evaluated by
Euler-Maclaurin with a monitored tail bound.  The tests check it against a
deliberately different route, the Dirichlet series summed directly with
iterated Abel summation (`l_series_oracle` in tests/oracles.py), which
shares no code with this one.  All analytic constants (Bernoulli numbers,
Euler's constant, the digamma value entering the moment main term) are
computed here from their defining series, not pasted in as literals.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .characters import DirichletCharacter
from .errors import PoleAtOne, PreconditionViolated, PrincipalCharacter
from .modular import blocks

_EM_TAIL_TARGET = 2**-52  # one ulp of 1
_EM_BERNOULLI_TERMS = 15  # uses B_2 .. B_30, bound from B_32
# Work is priced in point-terms: one complex power on one grid point (30-55 ns
# as `_power` on a 2-core host with numpy 2.4, 60-85 ns as numpy's complex
# power), plus 64 per array for numpy dispatch.  An Euler-Maclaurin grid costs
# (shift + head) point-terms per point, the head and the Bernoulli terms
# pricing as _EM_HEAD_TERMS; a Taylor grid one power and a Horner step of
# _TAYLOR_STEP_TERMS per degree per point, plus its centres.  A product in a
# character sum prices as a Horner step too: 3-6 ns in `char_sum_S` at 3^6 to
# 3^12, 6-7.5, 9-11 and 15-18 ns in `l_value` at 3^8, 3^10 and 3^12.  The cap
# of 2^27 point-terms in `require_work` is about 4-7 s of powers; the longest
# `hybrid` windows it admits ran 4.9-5.5 s at 3^10 and 11-12.5 s at 3^12.
# The Euler-Maclaurin shift grows like |t|/2; the Taylor centres grow like |t|
# and each sums such a shift, so their cost grows like t^2 but not with q.  One
# point is refused past |t| of about 3.6e6 and a 3^10 grid past 4.4e3, both on
# Euler-Maclaurin; 3^12 and 3^14 grids past 1.7e3 and 1.5e3 on Taylor
# (Euler-Maclaurin alone: 512 and 56).
_MAX_WORK = 2**27
_EM_HEAD_TERMS = 8
_TAYLOR_POINT_TERMS = 1.5
_TAYLOR_STEP_TERMS = 1 / 8
# each of the N + 1 centre evaluations of a Taylor grid meets a quarter of the
# target, so their weighted tails leave room for the remainder and rounding
_CENTRE_TAIL_TARGET = _EM_TAIL_TARGET / 4


@lru_cache(maxsize=1)
def _bernoulli_numerators() -> tuple:
    """B_0 .. B_32 (B_1 = -1/2) times 33!, their common denominator (von
    Staudt-Clausen: B_m's is squarefree, of primes p with (p - 1) | m), as
    exact integers; int / int rounds correctly, as float(Fraction) does."""
    n_max = 2 * _EM_BERNOULLI_TERMS + 2
    b = [math.factorial(n_max + 1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) // (m + 1))
    return tuple(b)


def bernoulli_even(j: int) -> float:
    """B_{2j} as a double."""
    b = _bernoulli_numerators()
    return b[2 * j] / b[0]


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
    b = _bernoulli_numerators()
    coefs = tuple(
        b[2 * j] / (b[0] * math.factorial(2 * j))
        for j in range(1, _EM_BERNOULLI_TERMS + 1)
    )
    return coefs, abs(b[-1]) / (b[0] * math.factorial(len(b) - 1))  # B_{2J+2}


def require_work(what: str, terms: float) -> None:
    """Refuse, before any of it is done, `what` priced at `terms` point-terms
    over the cap, or at a NaN; an int price is compared exactly."""
    if not terms <= _MAX_WORK:
        shown = math.inf if terms > sys.float_info.max else terms
        raise PreconditionViolated(f"{what}: {shown:.3g} point-terms, over {_MAX_WORK}")


def em_shift(
    s: complex, x_min: float, cost_per_term: int, target: float = _EM_TAIL_TARGET
) -> tuple[int, float]:
    """The least Euler-Maclaurin shift n whose tail bound at x_min meets
    `target`, with the bound at n.  One shift term costs
    `cost_per_term` point-terms (grid points plus 64 per grid); a shift over
    `require_work`'s cap is refused before anything is summed.
    """
    _, tail_coef = _em_coefficients()
    # |R_J| <= |B_{2J+2}/(2J+2)!| |(s)_{2J+2}| w^(-e)/e, e = sigma + 2J + 1,
    # solved for the least w that meets the target
    top = 2 * _EM_BERNOULLI_TERMS + 2
    e = s.real + top - 1
    c = tail_coef * math.prod(abs(s + i) for i in range(top)) / e
    shift = (c / target) ** (1 / e) - x_min  # inf once c overflows
    what = f"Euler-Maclaurin shift of {shift:.3g} terms at |s| = {abs(s):.3g}"
    require_work(what, shift * cost_per_term)
    n_shift = max(0, math.ceil(shift))
    return n_shift, c * (n_shift + x_min) ** -e


def _power(x: np.ndarray, s: complex, out: np.ndarray | None = None) -> np.ndarray:
    """x^(-s) for real x > 0 from one real logarithm, into `out` if given, as
    exp(-sigma log x) (cos(t log x) - i sin(t log x)) with s = sigma + it;
    numpy's complex power takes a complex logarithm and exponential.  sin and
    cos run on contiguous arrays: into the strided halves of a complex array
    they take about twice as long."""
    lx = np.log(x)
    phase = lx * s.imag
    lx *= -s.real
    mag = np.exp(lx, out=lx)
    out = np.empty(lx.shape, dtype=np.complex128) if out is None else out
    out.real = np.cos(phase) * mag
    mag *= np.sin(phase)
    out.imag = -mag
    return out


def _em_hurwitz(
    s: complex, x: np.ndarray, target: float = _EM_TAIL_TARGET
) -> tuple[np.ndarray, float]:
    """Euler-Maclaurin Hurwitz zeta on an array of x > 0, with tail bound.

    The shift n is the least one whose tail bound at min(x) meets `target`;
    the returned bound is the one at that shift.
    """
    s = complex(s)
    if s == 1:
        raise PoleAtOne("Hurwitz zeta has its pole at s = 1")
    if s.real <= 0:
        raise PreconditionViolated("need Re(s) > 0")
    coefs, _ = _em_coefficients()
    n_shift, bound = em_shift(s, float(x.min()), x.size + 64, target)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for b in blocks(n_shift, x.size):  # one _power per chunk, added row by row
        for row in _power(np.arange(b.start, b.stop)[:, None] + x, s):
            acc += row
    w = n_shift + x
    wpow = _power(w, s)  # w^(-s); w^(1-s) and w^(-s-1) differ by a factor w
    acc += w * wpow / (s - 1) + 0.5 * wpow
    wpow /= w
    w2 = w * w
    rising = complex(s)  # (s)_{2j-1} tracked incrementally
    for j, coef in enumerate(coefs, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        acc += coef * rising * wpow
        wpow = wpow / w2
    return acc, bound


def _gamma(n: np.ndarray | int):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


def _taylor_degree(t: float, centres: int) -> tuple[int, float] | None:
    """The least degree N at which a Taylor grid at 1/2 + it about `centres`
    centres meets `_EM_TAIL_TARGET` a priori, with its remainder bound; None
    when no degree does.

    Term n of zeta(s, c + d) = sum_n (-1)^n (s)_n/n! zeta(s + n, c) d^n is at
    most w_n Z_n for |d| <= r = 1/(2K) and c >= 1: w_n = |(s)_n|/n! r^n, and
    Z_n = (n + 1/2)/(n - 1/2) >= zeta(1/2 + n, 1) >= |zeta(s + n, c)| for
    n >= 1.  As |s + n|/(n + 1) <= hypot(1, t/(n + 1)), the terms past N fall
    at ratio rho = r hypot(1, t/(N + 2)) or faster.  The tail is the sum of
    the centres' tails, each weighted by w_n; the remainder
    w_{N+1} Z_{N+1}/(1 - rho); and the rounding of the terms n >= 1,
    gamma_{8n+4} sqrt(2) w_n Z_n (see `_taylor_grid`).
    """
    s = complex(0.5, t)
    r = 0.5 / centres
    w, em, rounding, n = 1.0, _CENTRE_TAIL_TARGET, 0.0, 1
    while em + rounding <= _EM_TAIL_TARGET:
        w *= abs(s + n - 1) / n * r
        z = (n + 0.5) / (n - 0.5)
        rho = r * math.hypot(1, t / (n + 1))
        remainder = w * z / (1 - rho) if rho < 1 else math.inf
        if em + rounding + remainder <= _EM_TAIL_TARGET:
            return n - 1, remainder
        em += w * _CENTRE_TAIL_TARGET
        rounding += _gamma(8 * n + 4) * math.sqrt(2) * w * z
        n += 1
    return None


def grid_route(q: int, t: float, grids: int = 1) -> int:
    """The cheaper route to a zeta grid of q points at 1/2 + it: the number
    of Taylor centres, or 0 for Euler-Maclaurin on every point.

    Both routes are priced in `em_shift`'s point-terms, and the route depends
    only on (q, |t|).  The Taylor centres are powers of two from the least
    with rho <= 1/2 on, while their Euler-Maclaurin head alone costs less than
    the best route so far.  `grids` such grids at once are refused when they
    cost more than `require_work` allows.
    """
    s = complex(0.5, t)
    # at one point-term per shift term em_shift refuses only a shift that is
    # over the cap by itself; the routes are priced and refused here
    n_shift, _ = em_shift(s, 1 / q, 1)
    best_cost, best = (n_shift + _EM_HEAD_TERMS) * (q + 64), 0
    centres = 2 ** math.ceil(math.log2(math.hypot(1, t)))
    while _EM_HEAD_TERMS * (centres + 64) < best_cost:
        plan = _taylor_degree(t, centres)
        if plan is not None:
            degree, _ = plan
            x_min = 1 + 0.5 / centres
            centre_terms = sum(
                em_shift(s + n, x_min, 1, _CENTRE_TAIL_TARGET)[0] + _EM_HEAD_TERMS
                for n in range(degree + 1)
            )
            cost = centre_terms * (centres + 64) + q * (
                _TAYLOR_POINT_TERMS + degree * _TAYLOR_STEP_TERMS
            )
            if cost < best_cost:
                best_cost, best = cost, centres
        centres *= 2
    what = f"{grids} zeta grid(s) of {q} points at |s| = {abs(s):.3g} by"
    what += " Euler-Maclaurin shift or Taylor centres"
    require_work(what, grids * math.ceil(best_cost))  # exact for any grids
    return best


def _taylor_grid(t: float, q: int, centres: int) -> tuple[np.ndarray, float]:
    """zeta(s, a/q) at s = 1/2 + it for a = 1..q, as (a/q)^(-s) plus
    zeta(s, 1 + a/q), the latter a Taylor series about the nearest of the
    centres c_k = 1 + (2k + 1) r, r = 1/(2K), with its tail bound.

    The coefficients (-1)^n (s)_n/n! zeta(s + n, c_k) take one
    `_em_hurwitz` call per degree n; Horner runs on the real and imaginary
    parts, gathering one coefficient row per step.  The tail sums the
    centres' tails weighted by |(s)_n|/n! r^n, the remainder of
    `_taylor_degree`, and the rounding of the terms n >= 1: Horner in the
    once-rounded offset d gives term n a factor 1 + theta_{3n+1} (Higham,
    Accuracy and Stability, section 5.1), and forming its coefficient by n
    rising-factorial steps and one product another 1 + theta_{5n+3}.  As on
    the Euler-Maclaurin route, whose tail counts truncation only, the
    rounding inside each Euler-Maclaurin value, of the term n = 0 and of the
    final sum is not counted in the tail; `_zeta_grid`'s rounding allowance
    stands for it.
    """
    s = complex(0.5, t)
    degree, remainder = _taylor_degree(t, centres)
    r = 0.5 / centres
    c = 1 + (2 * np.arange(centres) + 1) * r
    rows, em_tail, factor = [], 0.0, 1 + 0j
    for n in range(degree + 1):
        z, tail = _em_hurwitz(s + n, c, _CENTRE_TAIL_TARGET)
        rows.append(factor * z)
        em_tail += abs(factor) * r**n * tail
        factor *= -(s + n) / (n + 1)
    re = np.array([row.real for row in rows])
    im = np.array([row.imag for row in rows])
    orders = np.arange(1, degree + 1)
    scale = _gamma(8 * orders + 4) * r**orders
    # summed by hand: a matrix product would start BLAS for a few rows
    terms = scale[:, None] * (np.abs(re[1:]) + np.abs(im[1:]))
    rounding = float(terms.sum(axis=0).max())

    # block by block into the grid, so the build holds it and a few blocks
    vals = np.empty(q, dtype=np.complex128)
    for b in blocks(q):
        a = np.arange(b.start + 1, b.stop + 1)
        block = _power(a / q, s, out=vals[b])
        k = a * centres // q
        np.minimum(k, centres - 1, out=k)
        # (1 + a/q) - c_k over an exact integer numerator, rounded once; the
        # cost cap keeps 2Kq below 2^53
        a *= 2 * centres
        a -= (2 * k + 1) * q
        d = a / (2 * centres * q)
        acc_re, acc_im = re[degree].take(k), im[degree].take(k)
        for n in range(degree - 1, -1, -1):
            acc_re *= d
            acc_re += re[n].take(k)
            acc_im *= d
            acc_im += im[n].take(k)
        block.real += acc_re
        block.imag += acc_im
        del a, k, d, acc_re, acc_im  # before the next block's arrays
    return vals, em_tail + remainder + rounding


# each caller runs every character at one (q, t) before the next (q, t), so
# one grid is cached; a miss releases it before building the next.  The
# Taylor build holds the grid and a few blocks; the sum of |values| then adds
# a q-length float array.  Euler-Maclaurin, taken only at small q, works on
# whole grids.
@lru_cache(maxsize=1)
def _zeta_grid(q: int, t: float) -> tuple[np.ndarray, float, float]:
    """zeta(1/2 + it, a/q) for a = 1..q, the shared grid for one modulus,
    by the route `grid_route` picks.

    Returns (values, uniform tail bound, rounding allowance): the last is
    (log2 q + 4) 2^-52 sum |values|, for one grid sum with weights |w| <= 1.
    """
    _zeta_grid.cache_clear()
    centres = grid_route(q, t)
    if centres:
        vals, bound = _taylor_grid(t, q, centres)
    else:
        x = np.arange(1, q + 1, dtype=np.float64) / q
        vals, bound = _em_hurwitz(0.5 + 1j * t, x)
    vals.setflags(write=False)
    return vals, bound, (math.log2(q) + 4) * 2**-52 * float(np.abs(vals).sum())


class LValue(NamedTuple):
    """A central-line value with its accumulated error bound."""

    value: complex
    abs_error_bound: float


def l_value(chi: DirichletCharacter, t: float = 0.0) -> LValue:
    """L(1/2 + it, chi) = q^(-s) sum_a chi(a) zeta(s, a/q), a = 1..q."""
    if chi.is_principal:
        raise PrincipalCharacter("central values here are for chi != chi_0")
    m = chi.modulus
    s = 0.5 + 1j * float(t)
    zg, tail, rounding = _zeta_grid(m.q, float(t))
    table = chi.value_table()
    # a runs over 1..q-1 (chi(q) = 0 kills the endpoint), in place in our own table
    total = complex(np.multiply(table[1:], zg[:-1], out=table[1:]).sum())
    scale = m.q ** (-s)
    return LValue(scale * total, abs(scale) * (m.phi * tail + rounding))


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
