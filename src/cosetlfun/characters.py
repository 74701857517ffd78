"""Dirichlet characters mod p^k and their cosets.

A character is pinned down by one exponent c in Z/phi(q): it sends the fixed
generator g to e(c/phi(q)).  Conductors, parity and products are then integer
bookkeeping on c.  The unit-group filtration by level-j subgroups gives the
cosets everything downstream averages over, and the logarithm parameter from
`postnikov_ell` linearizes characters on 1-units.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModulus, NotPrimitive, OddCharacter, PreconditionViolated
from .modular import PrimePowerModulus, blocks, mod_inverse, reduce_mod, root_of_unity


def primitive_exponents(m: PrimePowerModulus) -> Iterator[int]:
    """Exponents c of the primitive characters mod m, ascending, one at a
    time: a list of all phi would take about 8.5 MB at 3^12."""
    return (c for c in range(1, m.phi) if c % m.p != 0)


def even_primitive_exponents(m: PrimePowerModulus) -> list:
    """Exponents c of the even primitive characters mod m, ascending."""
    return [c for c in range(2, m.phi, 2) if c % m.p != 0]


def _generator_block(m: PrimePowerModulus, c: int, b: slice) -> np.ndarray:
    """chi_c(g^i) = e(ci/phi) for i in the slice b of [0, phi), a fresh
    array; c is taken mod phi first, so every angle c*i stays below
    phi^2 < 2^62 and is reduced exactly in int64."""
    idx = np.arange(b.start, b.stop)
    idx *= c % m.phi
    return m.phi_roots.take(reduce_mod(idx, m.phi))


def generator_row(m: PrimePowerModulus, c: int) -> np.ndarray:
    """chi_c(g^i) = e(ci/phi) for i in [0, phi), a fresh array."""
    return _generator_block(m, c, slice(0, m.phi))


def character_sums(row: np.ndarray) -> np.ndarray:
    """sum_i e(ci/phi) row[i] for every exponent c in [0, phi), indexed by c,
    where row[i] = f(g^i) lists a function on the units in generator order:
    the sums of every chi_c against f, as one length-phi inverse DFT (numpy's
    ifft divides by phi, hence the factor).  numpy.fft is reached only here,
    so importing the package does not load it (about 0.56 MiB and 1.5 ms)."""
    out = np.fft.ifft(row)
    out *= row.size
    return out


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod p^k sending the generator to e(c/phi)."""

    modulus: PrimePowerModulus
    c: int

    def __post_init__(self):
        object.__setattr__(self, "c", self.c % self.modulus.phi)

    def __call__(self, n: int) -> complex:
        m = self.modulus
        d = int(m.dlog[n % m.q])
        if d < 0:
            return 0j
        return root_of_unity(self.c * d, m.phi)

    @property
    def is_principal(self) -> bool:
        return self.c == 0

    @property
    def is_even(self) -> bool:
        # chi(-1) = e(c * (phi/2) / phi) = (-1)^c
        return self.c % 2 == 0

    @property
    def conductor(self) -> int:
        """Smallest p^f the character factors through (1 for principal)."""
        if self.c == 0:
            return 1
        p, k = self.modulus.p, self.modulus.k
        v = 0
        c = self.c
        while c % p == 0:
            c //= p
            v += 1
        return p ** (k - v)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus.q

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, -self.c)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise InvalidModulus("can only multiply characters of one modulus")
        return DirichletCharacter(self.modulus, self.c + other.c)

    def value_table(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as a complex array, zero off the units."""
        m = self.modulus
        out = np.zeros(m.q, dtype=np.complex128)
        for b in blocks(m.phi):
            out[m.powers[b]] = _generator_block(m, self.c, b)
        return out


def postnikov_ell(chi: DirichletCharacter) -> int:
    """Logarithm parameter ell in Z/p^(k-1) with chi(1+px) = e_q(ell*log(1+px)).

    On the generator 1+p of the 1-units, chi(1+p) = e(c*ind(1+p)/phi) collapses
    to e(m/p^(k-1)) with m = c * ind(1+p)/(p-1); matching e(ell*u/p^(k-1)),
    where p*u = log(1+p), pins ell = m * u^(-1).  Both sides are homomorphisms
    on the cyclic 1-unit group, so agreement on 1+p is agreement everywhere.
    """
    m = chi.modulus
    s, u = m.one_unit_logs
    pk1 = m.p ** (m.k - 1)
    return chi.c * s % pk1 * mod_inverse(u, pk1) % pk1


def character_with_ell(
    m: PrimePowerModulus, ell: int, even: bool | None = None
) -> DirichletCharacter:
    """A character mod p^k with the requested logarithm parameter.

    The exponent is fixed mod p^(k-1) by ell; an optional parity pick uses the
    remaining freedom c -> c + p^(k-1).
    """
    s, u = m.one_unit_logs
    pk1 = m.p ** (m.k - 1)
    c = ell % pk1 * u % pk1 * mod_inverse(s, pk1) % pk1
    if even is not None and c % 2 != (0 if even else 1):
        c += pk1  # p^(k-1) is odd, so this flips parity and keeps ell
    chi = DirichletCharacter(m, c)
    assert postnikov_ell(chi) == ell % pk1
    return chi


@dataclass(frozen=True)
class CosetSpec:
    """A coset base * H_{p^j} of the level-j subgroup, with a parity filter.

    H_{p^j} is the group of characters mod p^k of conductor dividing p^j,
    i.e. exponents divisible by p^(k-j); it has phi(p^j) elements.
    """

    base: DirichletCharacter
    j: int
    parity: str = "all"

    def __post_init__(self):
        level_modulus(self.base.modulus, self.j)
        if self.parity not in ("all", "even", "odd"):
            raise PreconditionViolated(f"unknown parity filter {self.parity!r}")
        if not self.base.is_primitive:
            raise NotPrimitive("coset base must be primitive")


def level_modulus(m: PrimePowerModulus, j: int) -> int:
    """q0 = p^j for a level 0 <= j <= k, the one power of p formed from j."""
    if not 0 <= j <= m.k:
        raise PreconditionViolated(f"level j = {j} outside [0, {m.k}]")
    return m.p**j


def proper_level(m: PrimePowerModulus, j: int) -> int:
    """q0 = p^j for a moment level, which needs 1 <= j < k; every power of
    p a moment forms is q0 or q // q0, so none is formed before this check."""
    if not 1 <= j < m.k:
        raise PreconditionViolated(f"level j = {j} outside [1, {m.k})")
    return level_modulus(m, j)


def even_family(spec: CosetSpec) -> int:
    """q0 for the cosets the modified recipe averages over: the even members
    of an even primitive base's coset at a proper level."""
    if spec.parity != "even":
        raise PreconditionViolated("the recipe's averages run over the even coset")
    if not spec.base.is_even:
        raise OddCharacter("the recipe's averages need an even base character")
    return proper_level(spec.base.modulus, spec.j)


def classify_regime(k: int, j: int) -> str:
    """The window of level j against k, named after the secondary-term
    theorems: thm11 for j < k < 2j, thm12 for 2j < k <= 3j, both at k = 2j
    and none otherwise.  The coset epsilon averages have their closed forms
    on the same windows (`gauss.eps_regimes`)."""
    if k == 2 * j:
        return "both"
    if j < k < 2 * j:
        return "thm11"
    if 2 * j < k <= 3 * j:
        return "thm12"
    return "none"


def coset_exponents(spec: CosetSpec) -> list:
    """Exponents of the coset's members, parity-filtered, ascending.

    They are the residue class of the base exponent mod p^(k-j) in
    [0, phi): for j >= 1 the class has phi/p^(k-j) = phi(p^j) members, and
    for j = 0 it is the base alone.
    """
    m = spec.base.modulus
    step = m.q // level_modulus(m, spec.j)
    want = {"all": (0, 1), "even": (0,), "odd": (1,)}[spec.parity]
    return [c for c in range(spec.base.c % step, m.phi, step) if c % 2 in want]


def enumerate_coset(spec: CosetSpec) -> tuple[DirichletCharacter, ...]:
    """Members of the coset, parity-filtered, ascending in exponent."""
    m = spec.base.modulus
    return tuple(DirichletCharacter(m, c) for c in coset_exponents(spec))
