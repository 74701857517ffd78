"""Shifted character sums and desk-scale scans of the hybrid mean-value bounds.

The double sum S(chi, h*q0, n) is the object controlling the off-diagonal in
the conductor-dropping argument.  Its asymptotic bounds carry unspecified
constants, so nothing here asserts an inequality absolutely: the scans emit
(sum, envelope, ratio) tables and the only hard checks are a soft regression
guard on the ratio and quadrature self-consistency.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .characters import CosetSpec, DirichletCharacter, enumerate_coset, level_modulus
from .errors import PreconditionViolated, QuadratureTooCoarse
from .lcentral import _TAYLOR_STEP_TERMS, grid_route, l_value, require_work
from .modular import BLOCK, PrimePowerModulus, blocks, phi_prime_power, require_memory


def char_sum_S(
    chi: DirichletCharacter, hs: Sequence[int], j: int, freqs: Sequence[int]
) -> np.ndarray:
    """sum over alpha mod q of chi(alpha + h*q0) conj(chi(alpha)) e_q(alpha n),
    as a (len(hs), len(freqs)) array: one row per shift h in `hs`, one
    column per frequency n in `freqs`.

    Direct summation, each cell one pairwise sum of q terms against phase
    rows formed once per call; terms where alpha or alpha + h*q0 shares a
    factor with q vanish through the character table.
    """
    q, q0 = chi.modulus.q, level_modulus(chi.modulus, j)
    table, alpha = chi.value_table(), np.arange(q)
    conj = np.conj(table)
    # the bits of 2j * pi * (n % q) / q in Python complex arithmetic
    angles = 1j * (2 * np.pi * (np.asarray(freqs, dtype=np.int64) % q) / q)
    phases = np.exp(angles[:, None] * alpha)
    # shifts mod q keep h * q0 < q^2 < 2^62 inside int64
    hs = np.asarray(hs, dtype=np.int64) % q
    out = np.empty((len(hs), len(freqs)), dtype=np.complex128)
    for b in blocks(len(hs), (len(freqs) + 1) * q):
        w = table[(alpha + hs[b, None] * q0) % q] * conj
        np.sum(w[:, None, :] * phases, axis=2, out=out[b])
    return out


def _doubling(limit: int) -> list[int]:
    return [1 << i for i in range(limit.bit_length())]


@dataclass
class Lemma9Scan:
    """Ratio tables from one scan: off-diagonal cells and the n = 0 line."""

    rows: list[dict] = field(default_factory=list)
    base_ratio: float = 0.0
    max_ratio: float = 0.0
    noise_floor: float = 0.0
    # the soft guard's allowance over the base ratio, read by its warning too
    GUARD_FACTOR: ClassVar[float] = 3

    def soft_guard_ok(self) -> bool:
        """Max off-diagonal ratio within GUARD_FACTOR times that of the
        smallest massive cell.

        The weight chi(alpha + h q0) conj(chi(alpha)) depends on alpha only
        mod q/q0, so S vanishes identically unless q0 | n; grid cells whose
        whole n-range misses multiples of q0 carry only rounding noise.  The
        base cell is therefore the first doubling cell with mass above the
        noise floor, and a scan with no massive cell passes vacuously.
        """
        if self.base_ratio == 0.0:
            return True
        return self.max_ratio <= self.GUARD_FACTOR * self.base_ratio


def lemma9_scan(m: PrimePowerModulus, j: int, A: int, B: int) -> Lemma9Scan:
    """|S| mass over 1 <= |h| <= A', 1 <= |n| <= B' against the envelope
    sqrt(q) (A'B'/sqrt(q0) + (q q0 A')^(1/4)), for doubling (A', B') up to
    the shift cap A and frequency cap B; plus the n = 0 line against q0 * A'."""
    q, q0 = m.q, level_modulus(m, j)
    if A < 1 or B < 1:
        raise PreconditionViolated("shift and frequency caps must be >= 1")
    # in exact ints, however large A and B, in point-terms: 1 a phase-row
    # exponential (25-34 ns), 1/4 a weight-row element (7-13 ns), 1/8 a
    # product (2-4 ns) and 2 a cell for its numpy calls (60-70 ns at q = 3)
    rows, step = 2 * B + 1, math.ceil(q * _TAYLOR_STEP_TERMS)
    what = f"a scan to A = {A}, B = {B} mod {q}"
    require_work(what, rows * q + 2 * A * (2 * step + rows * (step + 2)))
    # bytes: 16 a phase-row element and an element of one block, 16 a shift
    # for the shift arrays and 32 a cell for `out`, its hypot, fold and abs_s
    arrays = 16 * (rows * q + max(BLOCK, (rows + 1) * q)) + 32 * A * (2 * rows + 1)
    require_memory(f"the arrays of {what}", arrays)

    # |S| for every cell once, the shifts +-h summed; grid points sum sub-blocks
    shifts = (np.arange(1, A + 1)[:, None] * [1, -1]).ravel()
    freqs = np.append((np.arange(1, B + 1)[:, None] * [1, -1]).ravel(), 0)
    s = char_sum_S(DirichletCharacter(m, 1), shifts, j, freqs)
    # hypot rounds as Python's abs does (np.abs moves some noise cells)
    folded = np.hypot(s.real, s.imag).reshape(A, 2, rows).sum(axis=1)
    # contiguous, so that a slice of whole rows sums as one pairwise run
    abs_s, zero_col = np.ascontiguousarray(folded[:, :-1]), folded[:, -1]

    report = Lemma9Scan(noise_floor=1e-9 * math.sqrt(q))
    for a_cap in _doubling(A):
        for b_cap in _doubling(B):
            sum_s = float(abs_s[:a_cap, : 2 * b_cap].sum())
            envelope = math.sqrt(q) * (
                a_cap * b_cap / math.sqrt(q0) + (q * q0 * a_cap) ** 0.25
            )
            ratio = sum_s / envelope
            report.rows.append(
                dict(kind="offdiag", q=q, q0=q0, A=a_cap, B=b_cap,
                     sum_S=sum_s, envelope=envelope, ratio=ratio)
            )
            if report.base_ratio == 0.0 and sum_s > report.noise_floor:
                report.base_ratio = ratio
            report.max_ratio = max(report.max_ratio, ratio)
        zero_sum = float(zero_col[:a_cap].sum())
        zero_env = float(q0 * a_cap)
        report.rows.append(
            dict(kind="zero_line", q=q, q0=q0, A=a_cap, B=0,
                 sum_S=zero_sum, envelope=zero_env, ratio=zero_sum / zero_env)
        )
    return report


class HybridQuadrature(NamedTuple):
    lhs: float  # on the step-t_step grid of `samples` points
    halved_step_lhs: float  # on that grid plus every midpoint
    envelope: float
    ratio: float
    samples: int


def hybrid_moment_quadrature(
    chi: DirichletCharacter, j: int, T: float = 10.0, T0: float = 2.0,
    t_step: float = 0.25,
) -> HybridQuadrature:
    """Trapezoid quadrature of the coset-summed |L(1/2+it)|^2 over one window.

    lhs integrates sum_{psi in the level-j subgroup} |L(1/2 + it, chi psi)|^2
    for t in [T, T + T0]; the envelope is
    (T0 + T0^(-1/2) T^(1/2)) (q0 + q0^(-1/2) q^(1/2)).
    """
    m = chi.modulus
    if not T0 > 0:
        raise PreconditionViolated("window length T0 must be positive")
    if not t_step > 0:
        raise PreconditionViolated("quadrature step must be positive")
    # a finite T + T0 means a finite T and T0, and no overflow at the end
    if not all(map(math.isfinite, (T + T0, T0 / t_step))):
        raise PreconditionViolated("window needs a finite T + T0 and T0/t_step")
    if t_step > T0 / 8:
        raise QuadratureTooCoarse(f"step {t_step} exceeds T0/8 = {T0 / 8}")
    spec = CosetSpec(chi, j, "all")
    if T0 > T:
        raise PreconditionViolated("window needs T0 <= T")
    num = math.ceil(T0 / t_step - 1e-12)  # >= 8, as t_step <= T0/8
    # each sample builds a zeta grid of q points, at most as dear as the one at
    # T + T0, and sums it against each member, priced before either is formed
    grid_route(m.q, T + T0, 2 * num + 1)
    sums = (2 * num + 1) * phi_prime_power(m.p, j)
    require_work(f"{sums} coset sums of {m.q} points", sums * m.q * _TAYLOR_STEP_TERMS)
    members = enumerate_coset(spec)
    # the even-index points are exactly np.linspace(T, T + T0, num + 1)
    ts = np.linspace(T, T + T0, 2 * num + 1)
    ys = np.array(
        [sum(abs(l_value(eta, float(t)).value) ** 2 for eta in members) for t in ts]
    )
    lhs = float(np.trapezoid(ys[::2], ts[::2]))
    halved = float(np.trapezoid(ys, ts))

    q0 = level_modulus(m, j)
    envelope = (T0 + T0**-0.5 * math.sqrt(T)) * (q0 + q0**-0.5 * math.sqrt(m.q))
    return HybridQuadrature(lhs, halved, envelope, lhs / envelope, num + 1)
