"""Shift-and-average inequalities for finite complex sequences.

The classical inequality bounds |sum a_n|^2 by shifted autocorrelations; its
proof runs through an amplifier kernel and Parseval, and the multiplicative
analog shifts by multiples of a divisor of the modulus so that the whole
character coset can be averaged at once.  All three identities are computed
exactly (convolutions and correlations of finite arrays), never by numerical
quadrature of the underlying integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import CosetSpec, DirichletCharacter, coset_exponents, level_modulus
from .errors import BadShiftBound, PreconditionViolated
from .modular import PrimePowerModulus, blocks, phi_prime_power, reduce_mod


@dataclass(frozen=True, eq=False)
class FiniteSequence:
    """Complex coefficients indexed n = support_start .. support_start+len-1,
    held as one read-only complex128 array (a copy of those given)."""

    support_start: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.complex128)
        if arr.size < 1:
            raise PreconditionViolated("sequence needs at least one coefficient")
        if not np.isfinite(arr).all():
            raise PreconditionViolated("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    def __len__(self) -> int:
        return self.coefficients.size

    @property
    def support_end(self) -> int:
        # inclusive
        return self.support_start + self.coefficients.size - 1

    @cached_property
    def autocorrelation(self) -> list:
        """Re C(h) = Re sum_n a_{n+h} conj(a_n) for h = 0 .. len-1, formed
        once, as Python floats (indexing numpy scalars in a loop costs more
        than the sum); np.correlate conjugates its second argument."""
        arr = self.coefficients
        return np.correlate(arr, arr, "full")[arr.size - 1 :].real.tolist()


def random_sequence(length: int, rng) -> FiniteSequence:
    """Seeded coefficients on [1, length], uniform on the square [0,1)+[0,1)i:
    real parts from `rng.random(length)`, then imaginary parts from a second
    call (`rng` a `seeded.SeededStream` or `numpy.random.Generator`)."""
    u = rng.random(length)
    v = rng.random(length)
    return FiniteSequence(1, u + 1j * v)


def _symmetric_shift_sum(corr: list, weights: list) -> float:
    """sum_{|h| < H} weights[|h|] * C(h) of a sequence whose autocorrelation
    is corr, with H = len(weights), folded pairwise so it is exactly real.

    C(-h) = conj(C(h)), so the h and -h terms sum to 2*Re(weight * C(h)).
    """
    total = weights[0] * corr[0]
    # C(h) = 0 for h >= n, and adding those zeros leaves total unchanged
    for h in range(1, min(len(weights), len(corr))):
        total += 2.0 * weights[h] * corr[h]
    return total


def vdc_inequality_check(a: FiniteSequence, H: int) -> tuple[float, float]:
    """Both sides of the shift inequality |sum a_n|^2 <= (1+N/H) * weighted sum.

    The sequence must be supported on [1, N].  Returns (lhs, rhs); the caller
    asserts lhs <= rhs within a tiny relative slack.
    """
    if H < 1:
        raise BadShiftBound(f"shift count H = {H} must be >= 1")
    if a.support_start != 1:
        raise PreconditionViolated("inequality is stated for support [1, N]")
    N = len(a)
    arr = a.coefficients
    lhs = abs(arr.sum()) ** 2
    rhs = (1.0 + N / H) * _symmetric_shift_sum(a.autocorrelation, [1.0 - h / H for h in range(H)])
    return float(lhs), float(rhs)


def amplified_l2_identity(a: FiniteSequence, H: int) -> tuple[float, float]:
    """Mean square of the amplified sum, by Parseval and by autocorrelations.

    lhs expands the coefficient sequence of the product (kernel of length H
    times the generating polynomial of a) via discrete convolution and sums
    squared moduli; rhs is sum_{|h|<H} (H-|h|) C(h).  The two are equal as an
    identity, so agreement is to rounding error only.
    """
    if H < 1:
        raise BadShiftBound(f"kernel length H = {H} must be >= 1")
    conv = np.convolve(np.ones(H, dtype=np.complex128), a.coefficients)
    lhs = float(np.sum(np.abs(conv) ** 2))
    rhs = _symmetric_shift_sum(a.autocorrelation, [float(H - h) for h in range(H)])
    return lhs, rhs


def _support_dlogs(a: FiniteSequence, m: PrimePowerModulus) -> np.ndarray:
    """Index of each n on the support of a, -1 where p | n."""
    return m.dlog[np.arange(a.support_start, a.support_end + 1) % m.q]


def _character_rows(m: PrimePowerModulus, d: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """chi_c(n) for each exponent c in cs (rows) and each n (columns) with
    dlog d; angles are reduced exactly in int64, so every entry is a table
    root of unity, and entries off the units are 0."""
    rows = m.phi_roots.take(reduce_mod(cs[:, None] * d, m.phi))
    rows[:, d < 0] = 0
    return rows


def twisted_sum(a: FiniteSequence, m: PrimePowerModulus, cs) -> np.ndarray:
    """sum_n a_n chi_c(n) over the support, for each exponent c in cs.

    One dlog gather of the support serves every c.  Rows are formed and
    summed in `modular.blocks` of at most BLOCK entries (one row when the
    support alone is longer), so memory stays bounded whatever the number of
    exponents.  Each row is its own elementwise product and sum, so its
    value does not depend on the blocking.
    """
    arr = a.coefficients
    d = _support_dlogs(a, m)
    cs = np.asarray(cs, dtype=np.int64) % m.phi
    out = np.empty(cs.size, dtype=np.complex128)
    for b in blocks(cs.size, arr.size):
        rows = _character_rows(m, d, cs[b])
        rows *= arr
        out[b] = rows.sum(axis=1)
    return out


def coset_shift_identity(
    a: FiniteSequence, chi: DirichletCharacter, j: int
) -> tuple[float, float]:
    """Coset mean square vs shifted-by-q0 autocorrelations; exact identity.

    lhs sums |sum_n a_n eta(n)|^2 over the full coset of chi by the level-j
    subgroup, one direct twisted sum per member.  Orthogonality collapses
    this to phi(p^j) times the sum of autocorrelations of b_n = a_n chi(n) at
    shifts divisible by q0 = p^j.
    """
    m = chi.modulus
    sums = twisted_sum(a, m, coset_exponents(CosetSpec(chi, j, "all")))
    lhs = np.sum(sums.real**2 + sums.imag**2)

    q0 = level_modulus(m, j)
    chi_row = _character_rows(m, _support_dlogs(a, m), np.array([chi.c]))
    b = FiniteSequence(a.support_start, a.coefficients * chi_row[0])
    weights = [1.0 if h % q0 == 0 else 0.0 for h in range(len(a))]
    rhs = _symmetric_shift_sum(b.autocorrelation, weights) * phi_prime_power(m.p, j)
    return float(lhs), float(rhs)
