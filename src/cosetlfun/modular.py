"""Modular arithmetic mod odd prime powers.

Everything downstream works inside the unit group of Z/p^k, which is cyclic
for odd p.  The modulus object fixes a generator g once and lists the units
in generator order, g^i for i < phi, with the discrete log as its inverse
table, so character evaluation and exponential sums reduce to table lookups
with exact integer angle arithmetic.
"""

from __future__ import annotations

import cmath
import math
import os
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateConductor, InvalidModulus, NotInvertible, NotOneUnit

# below it phi^2 < 2^62, so the int64 angle products c * dlog and n * t of
# character tables and Gauss sums are exact
MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Primality by the trial division of `_factor`: up to sqrt(n)/2 steps,
    so `check_modulus` checks the 2^31 cap first."""
    return n >= 2 and _factor(n) == {n: 1}


def phi_prime_power(p: int, j: int) -> int:
    """Euler phi of p^j, with phi(1) = 1."""
    return p ** (j - 1) * (p - 1) if j >= 1 else 1


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m)."""
    if m <= 0:
        raise InvalidModulus(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} shares a factor with {m}") from None


def jacobi_symbol(a: int, q: int) -> int:
    """Jacobi symbol (a|q) for odd q >= 1, by binary reciprocity."""
    if q < 1 or q % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs odd positive q, got {q}")
    a %= q
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                result = -result
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            result = -result
        a %= q
    return result if q == 1 else 0


def epsilon_q(q: int) -> complex:
    """The quadratic Gauss sum sign: 1 for q = 1 mod 4, i for q = 3 mod 4."""
    if q % 2 == 0:
        raise InvalidModulus(f"sign factor undefined for even q = {q}")
    return (1 + 0j) if q % 4 == 1 else 1j


def signed_lift(x: int, mod: int) -> int:
    """Representative of x mod `mod` of least absolute value (mod odd)."""
    r = x % mod
    return r - mod if 2 * r > mod else r


def root_of_unity(num: int, den: int) -> complex:
    """e(num/den) with the angle reduced exactly before leaving integers."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def sample_units(rng, q: int, p: int, count: int) -> list:
    """`count` draws of integers in [1, q) prime to p, by rejection from
    `rng.integers(1, q)` (a `seeded.SeededStream` or `numpy.random.Generator`)."""
    out = []
    while len(out) < count:
        c = int(rng.integers(1, q))
        if c % p != 0:
            out.append(c)
    return out


def _factor(n: int) -> dict:
    """Prime factorization {prime: exponent} of n >= 1, by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisor_count(n: int) -> int:
    """Number of divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisor count needs n >= 1, got {n}")
    return math.prod(e + 1 for e in _factor(n).values())


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(what: str, nbytes: int) -> None:
    """Refuse, before anything is allocated, `nbytes` of arrays that would
    exceed the physical memory; `what` names them in the message."""
    if nbytes > _physical_memory():
        raise InvalidModulus(
            f"{what} need {nbytes} bytes, more than the physical memory"
        )


def table_bytes(p: int, k: int) -> int:
    """Bytes of the five unit tables mod p^k: dlog 8q and powers 8 phi
    (int64), q_roots 16q, phi_roots 16 phi and power_roots 16 phi
    (complex128)."""
    return 24 * p**k + 40 * phi_prime_power(p, k)


def check_size(p: int, k: int) -> None:
    """Refuse q = p^k, for p >= 3, above the 2^31 cap or with unit tables
    beyond the physical memory.  p >= 3 puts p^k above the cap for every
    k >= 32, so a huge k is refused before p**k is formed."""
    if k >= MAX_MODULUS.bit_length() or p**k > MAX_MODULUS:
        raise InvalidModulus(f"q = {p}^{k} exceeds the 2^31 cap")
    require_memory(f"the unit tables mod {p}^{k}", table_bytes(p, k))


def check_modulus(p: int, k: int) -> None:
    """The one rule for the (p, k) of a `PrimePowerModulus`: k >= 1, then the
    cap and memory of `check_size`, then p an odd prime, whose trial division
    the cap keeps to at most sqrt(2^31)/2 steps."""
    if k < 1:
        raise InvalidModulus(f"exponent must be >= 1, got {k}")
    if p >= 3:
        check_size(p, k)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidModulus(f"{p} is not an odd prime")


def reduce_mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m, in place and returned, for an int64 array x: x - (x // m) m.

    numpy's floor division by a scalar multiplies and shifts instead of
    dividing each element, as `np.remainder` does, so this is the faster
    exact reduction.  Floor division makes it agree with `%` for negative x
    too, whenever the quotient times m fits in int64.
    """
    x -= x // m * m
    return x


# the most elements a q- or phi-length kernel takes at once, so that it holds
# its output and a few blocks, not several arrays of its output's length
BLOCK = 2**13


def blocks(n: int, width: int = 1) -> list:
    """Slices covering range(n) in order, of max(1, BLOCK // width) items."""
    step = max(1, BLOCK // width)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _geometric_powers(g: int, n: int, q: int) -> np.ndarray:
    """g^i mod q for i in [0, n), by doubling: the block [s, 2s) is the
    block [0, s) times g^s, so log2(n) int64 products, exact for q < 2^31."""
    out = np.ones(n, dtype=np.int64)
    size = 1
    while size < n:
        block = out[size : 2 * size]
        np.multiply(out[: block.size], pow(g, size, q), out=block)
        reduce_mod(block, q)
        size *= 2
    out.setflags(write=False)
    return out


class PrimePowerModulus:
    """An odd prime power q = p^k with a fixed generator g of (Z/q)*.

    `powers` (g^i mod q, i < phi) is the one table built up front.  Its
    inverse `dlog` (the index of each residue, -1 off the units) and the
    three root tables are built on first read, `phi_roots` in blocks.  All
    five are priced by `check_size` before anything is allocated: O(q)
    memory, refused when it would exceed the physical memory.
    """

    def __init__(self, p: int, k: int):
        check_modulus(p, k)
        self.p = p
        self.k = k
        self.q = p**k
        self.phi = phi_prime_power(p, k)
        self.generator = self._least_generator()
        self.powers = _geometric_powers(self.generator, self.phi, self.q)

    def _least_generator(self) -> int:
        # A generator mod p^2 generates mod every p^k (p odd), so testing
        # against p^min(k,2) identifies the least generator mod p^k.
        m = self.p ** min(self.k, 2)
        phi = phi_prime_power(self.p, min(self.k, 2))
        prime_factors = _factor(phi)
        g = 2
        while True:
            if all(pow(g, phi // r, m) != 1 for r in prime_factors):
                return g
            g += 1

    def __repr__(self) -> str:
        return f"PrimePowerModulus({self.p}, {self.k})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimePowerModulus)
            and (self.p, self.k) == (other.p, other.k)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    @cached_property
    def dlog(self) -> np.ndarray:
        """Index of each residue mod q to the fixed generator, -1 off the
        units, read-only: `powers` inverted by one scatter."""
        out = np.full(self.q, -1, dtype=np.int64)
        out[self.powers] = np.arange(self.phi)
        out.setflags(write=False)
        return out

    @cached_property
    def phi_roots(self) -> np.ndarray:
        """Table of e(j/phi) for j in [0, phi), filled block by block."""
        out = np.empty(self.phi, dtype=np.complex128)
        for b in blocks(self.phi):
            np.exp(2j * np.pi * np.arange(b.start, b.stop) / self.phi, out=out[b])
        return out

    @cached_property
    def q_roots(self) -> np.ndarray:
        """Table of e(j/q) for j in [0, q), built whole: in blocks it left
        glibc's malloc thresholds where `gauss_sum_brute` ran 2x slower at 5^6."""
        return np.exp(2j * np.pi * np.arange(self.q) / self.q)

    @cached_property
    def power_roots(self) -> np.ndarray:
        """e_q(g^i) for i in [0, phi), read-only: the additive character on
        the units in generator order."""
        row = self.q_roots[self.powers]
        row.setflags(write=False)
        return row

    @cached_property
    def one_unit_logs(self) -> tuple[int, int]:
        """(s, u) with ind(1+p) = s (p-1) and log(1+p) = p u: the index and the
        p-adic logarithm of the 1-unit generator 1+p, which `postnikov_ell` and
        `character_with_ell` convert between."""
        p = self.p
        if self.k < 2:
            raise DegenerateConductor("logarithm parameter needs k >= 2")
        t1 = self.index_of(1 + p)
        assert t1 % (p - 1) == 0, "1+p lies in the index-(p-1) subgroup"
        return t1 // (p - 1), padic_log(1 + p, self)

    def index_of(self, t: int) -> int:
        """Discrete log of the unit t to the fixed generator."""
        d = int(self.dlog[t % self.q])
        if d < 0:
            raise NotInvertible(f"{t} is not a unit mod {self.q}")
        return d


@lru_cache(maxsize=1)
def modulus(p: int, k: int) -> PrimePowerModulus:
    """The shared immutable modulus, its tables built once.  A grid runs one
    modulus at a time, so only the last one is kept."""
    return PrimePowerModulus(p, k)


def padic_log(x: int, m: PrimePowerModulus) -> int:
    """Unit-normalized p-adic logarithm of x = 1 mod p.

    Returns L in [0, p^(k-1)) with log(x) = p*L mod p^k, where log is the
    series sum (-1)^(i+1) (x-1)^i / i, in closed form: log(x) = (x^q - 1)/q
    mod q.  For odd p, x^q = exp(q log x), and q log x has valuation at
    least k + 1, so every term (q log x)^n / n! with n >= 2 has valuation at
    least 2k + 2 (Koblitz, p-adic Numbers, ch. IV): x^q = 1 + q log x mod q^2.
    """
    p, q = m.p, m.q
    x %= q
    if x % p != 1:
        raise NotOneUnit(f"{x} is not 1 mod {p}")
    return (pow(x, q, q * q) - 1) // q % q // p
