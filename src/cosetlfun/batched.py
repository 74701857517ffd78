"""Central values of every character of a modulus at once.

`l_values` evaluates L(1/2 + it, chi_c) for every exponent c from the zeta
grid of `lcentral` and one `character_sums` transform, with one error bound
that adds the transform's rounding to `l_value`'s.  The command line does
not import this module, so its children do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import character_sums
from .errors import PreconditionViolated
from .lcentral import _gamma, _zeta_grid
from .modular import PrimePowerModulus, _factor, require_memory, table_bytes

# Rounding of one `character_sums` transform, after Higham, Accuracy and
# Stability (2nd ed.), section 24.1: a radix-2 FFT whose weights are within
# mu of exact is within ((1 + eta)^t - 1) ||Fx||_2 of Fx in the 2-norm after
# t levels, eta = mu + gamma_4 (sqrt 2 + mu) per level (Theorem 24.2), and
# ||Fx||_2 = sqrt(n) ||x||_2.  pocketfft rounds its weights once from
# extended precision, so mu <= 2u and eta <= 8u, u = 2^-53.  It splits a
# length into passes of radix 2, 4, 8 and odd primes r, each followed by a
# twiddle multiplication.  A radix-r pass forms each output from r inputs
# with weights of modulus 1, by one multiplication per input and at most
# r - 1 additions: within (mu + sqrt 2 gamma_2 + gamma_(r-1)) sum |x_l| of
# exact, sqrt(r) times that relative to the pass's 2-norm sqrt(r).  With its
# twiddle that is below 8ru for every r <= 47; a radix-4 or radix-8 pass is
# 2 or 3 radix-2 levels.  So each prime factor r of phi, with multiplicity,
# counts as r levels of _FFT_LEVEL_ULPS ulps, and numpy's scaling by 1/phi
# and `character_sums`' by phi add 3 more.  A larger prime factor, or
# Bluestein's algorithm, which pocketfft takes only for lengths with one
# (largest prime factor r with r^2 > phi >= 50), is not covered.
_FFT_LEVEL_ULPS = 8
_FFT_MAX_RADIX = 47


def fft_rounding(phi: int) -> float:
    """Relative 2-norm bound on the rounding of a length-phi `character_sums`
    transform: ||computed - exact||_2 <= fft_rounding(phi) sqrt(phi) ||row||_2,
    which bounds every entry's error too.  Refuses a phi with a prime factor
    above `_FFT_MAX_RADIX`."""
    factors = _factor(phi)
    if max(factors, default=1) > _FFT_MAX_RADIX:
        raise PreconditionViolated(
            f"phi = {phi} has the prime factor {max(factors)} > {_FFT_MAX_RADIX}, "
            "outside the FFT rounding bound; use l_value per character"
        )
    levels = sum(r * e for r, e in factors.items())
    return _gamma(_FFT_LEVEL_ULPS * levels + 3)


def l_values(m: PrimePowerModulus, t: float = 0.0) -> tuple[np.ndarray, float]:
    """L(1/2 + it, chi_c) for every exponent c in [0, phi), indexed by c, with
    one error bound for all of them; the principal entry c = 0 is NaN.

    With a = g^i, sum_a chi_c(a) zeta(s, a/q) = sum_i e(ci/phi) zeta(s, g^i/q)
    is one `character_sums` transform of the grid gathered in generator
    order.  The bound is `l_value`'s, the same for every c, plus the
    transform's rounding, fft_rounding(phi) sqrt(phi) ||row||_2 (taken from
    the computed output's norm), all scaled by |q^(-s)|.  The unit tables
    (`modular.table_bytes`), the grid (16q bytes), the gathered row, the
    transform's output, and pocketfft's plan and scratch (16 phi each) are
    priced against the physical memory before any of them is built.
    """
    require_memory(
        f"the unit tables, zeta grid and transform mod {m.p}^{m.k}",
        table_bytes(m.p, m.k) + 16 * m.q + 64 * m.phi,
    )
    fft_rel = fft_rounding(m.phi)
    s = 0.5 + 1j * float(t)
    zg, tail, rounding = _zeta_grid(m.q, float(t))
    out = character_sums(zg.take(m.powers - 1))  # zeta(s, a/q) sits at a - 1
    # sqrt(phi) ||row||_2 is the exact transform's 2-norm, at most the
    # computed one over 1 - fft_rel; the computed norm's own rounding, a
    # sum of 2 phi squares, takes the gamma_(2 phi + 2).  Summed by hand:
    # np.linalg.norm's strided BLAS dot took 16 ms at 3^10 (2 cores), this
    # 0.1 ms, holding one phi-length float array at a time
    norm = math.sqrt(float(np.sum(out.real**2)) + float(np.sum(out.imag**2)))
    fft = fft_rel * norm / (1 - fft_rel - _gamma(2 * m.phi + 2))
    scale = m.q ** (-s)
    out *= scale
    out[0] = np.nan
    return out, abs(scale) * (m.phi * tail + rounding + fft)
