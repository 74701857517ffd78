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

from .characters import CosetSpec, DirichletCharacter, enumerate_coset
from .errors import PreconditionViolated, QuadratureTooCoarse
from .lcentral import grid_route, l_value
from .modular import PrimePowerModulus

# caps keeping a full scan under ~1e9 elementary operations
MAX_SCAN_MODULUS = 3**6
MAX_SCAN_CELLS = 256


def char_sum_S(
    chi: DirichletCharacter, hs: Sequence[int], j: int, freqs: Sequence[int]
) -> np.ndarray:
    """sum over alpha mod q of chi(alpha + h*q0) conj(chi(alpha)) e_q(alpha n),
    as a (len(hs), len(freqs)) array: one row per shift h in `hs`, one
    column per frequency n in `freqs`.

    Direct summation; terms where alpha or alpha + h*q0 shares a factor with
    q vanish through the character table.  The phase rows are formed once
    per call, and each shift sums its weight against all of them, one shift
    at a time so that no shifts x freqs x q array is held.
    """
    m = chi.modulus
    if not 0 <= j <= m.k:
        raise PreconditionViolated(f"level j = {j} outside [0, {m.k}]")
    q = m.q
    q0 = m.p**j
    table = chi.value_table()
    conj = np.conj(table)
    alpha = np.arange(q)
    angles = np.array([2j * np.pi * (n % q) / q for n in freqs], dtype=complex)
    phases = np.exp(angles[:, None] * alpha)
    out = np.empty((len(hs), len(freqs)), dtype=np.complex128)
    for row, h in zip(out, hs):
        w = table[(alpha + h * q0) % q] * conj
        np.sum(w * phases, axis=1, out=row)
    return out


def _doubling(limit: int) -> list[int]:
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    return out


@dataclass
class Lemma9Scan:
    """Ratio tables from one scan: off-diagonal cells and the n = 0 line."""

    rows: list[dict] = field(default_factory=list)
    base_ratio: float = 0.0
    max_ratio: float = 0.0
    max_mass: float = 0.0
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
        if self.max_mass <= self.noise_floor:
            return True
        return self.max_ratio <= self.GUARD_FACTOR * self.base_ratio


def lemma9_scan(m: PrimePowerModulus, j: int, A: int, B: int) -> Lemma9Scan:
    """|S| mass over 1 <= |h| <= A', 1 <= |n| <= B' against the envelope
    sqrt(q) (A'B'/sqrt(q0) + (q q0 A')^(1/4)), for doubling (A', B') up to
    the shift cap A and frequency cap B; plus the n = 0 line against q0 * A'."""
    if A < 1 or B < 1:
        raise PreconditionViolated("shift and frequency caps must be >= 1")
    if m.q > MAX_SCAN_MODULUS or A * B > MAX_SCAN_CELLS:
        raise PreconditionViolated(
            f"scan size (q = {m.q}, A*B = {A * B}) over the cap"
        )
    chi = DirichletCharacter(m, 1)

    # |S| for every cell once, the shifts +-h summed; grid points sum sub-blocks
    freqs = [sn for n in range(1, B + 1) for sn in (n, -n)]
    abs_s = np.zeros((A, 2 * B))
    zero_col = np.zeros(A)
    shifts = [sh for h in range(1, A + 1) for sh in (h, -h)]
    for i, row in enumerate(char_sum_S(chi, shifts, j, freqs + [0])):
        # Python abs per value: np.abs rounds some noise cells differently
        *sums, zero = map(abs, row.tolist())
        abs_s[i // 2] += sums
        zero_col[i // 2] += zero
    # formed after char_sum_S has checked the level, so a huge j never reaches p**j
    q, q0 = m.q, m.p**j

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
            if sum_s > report.max_mass:
                report.max_mass = sum_s
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
    # every sample builds one zeta grid of q points, at most as dear as the
    # one at T + T0, so the window is refused before its samples (or the
    # coset's members) are allocated
    grid_route(m.q, T + T0, 2 * num + 1)
    members = enumerate_coset(spec)
    # the even-index points are exactly np.linspace(T, T + T0, num + 1)
    ts = np.linspace(T, T + T0, 2 * num + 1)
    ys = np.array(
        [sum(abs(l_value(eta, float(t)).value) ** 2 for eta in members) for t in ts]
    )
    lhs = float(np.trapezoid(ys[::2], ts[::2]))
    halved = float(np.trapezoid(ys, ts))

    q0 = m.p**j
    envelope = (T0 + T0**-0.5 * math.sqrt(T)) * (q0 + q0**-0.5 * math.sqrt(m.q))
    return HybridQuadrature(lhs, halved, envelope, lhs / envelope, num + 1)
