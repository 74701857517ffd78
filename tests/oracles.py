"""Reference evaluators that only the tests call.

Each one computes a quantity of the library by a route that shares no code
with the library's own evaluator of it (the Abel-summation series against
the Hurwitz grid, a direct overlap sum against one correlation, dict rows
through csv.writer against the cached row templates), or states a closed
form that the library checks against brute sums.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from cosetlfun.characters import (
    CosetSpec,
    DirichletCharacter,
    classify_regime,
    enumerate_coset,
)
from cosetlfun.errors import (
    BadShiftBound,
    CosetLFunError,
    PreconditionViolated,
    PrincipalCharacter,
)
from cosetlfun.lcentral import (
    _CENTRE_TAIL_TARGET,
    _EM_BERNOULLI_TERMS,
    _EM_TAIL_TARGET,
    _em_coefficients,
    _em_hurwitz,
    _gamma,
    _power,
    _taylor_degree,
    em_shift,
)
from cosetlfun.modular import (
    PrimePowerModulus,
    epsilon_q,
    jacobi_symbol,
    mod_inverse,
    phi_prime_power,
    root_of_unity,
)
from cosetlfun.vdc import FiniteSequence


class SharedFactor(CosetLFunError):
    """Quadratic coefficient shares a factor with the modulus."""


def quadratic_gauss_closed(a: int, b: int, q: int) -> complex:
    """Closed form of sum_x e_q(a x^2 + b x) for odd q and gcd(a, q) = 1.

    Equals q^(1/2) eps_q (a|q) e_q(-(4a)^(-1) b^2), the complete-the-square
    evaluation.
    """
    eps = epsilon_q(q)  # validates parity of q
    if math.gcd(a, q) != 1:
        raise SharedFactor(f"gcd({a}, {q}) != 1")
    shift = -mod_inverse(4 * a, q) * b * b
    return math.sqrt(q) * eps * jacobi_symbol(a, q) * root_of_unity(shift, q)


def eps_regimes_oracle(p: int, k: int, j: int) -> list:
    """Closed-form regimes of the coset epsilon average at level j mod p^k,
    by their own inequalities: linear for k/2 <= j < k, quadratic for
    k/3 <= j <= k/2 and p >= 5."""
    out = []
    if (k + 1) // 2 <= j < k:
        out.append("linear")
    if p >= 5 and -(-k // 3) <= j <= k // 2:
        out.append("quadratic")
    return out


# The windows of the secondary terms as `moments` stated them before it read
# `gauss.eps_regimes`: A on the first, A' on the second for p >= 5, and
# `predict_moment` took A wherever both held.
A_WINDOWS = ("thm11", "both")
A_PRIME_WINDOWS = ("thm12", "both")


def secondary_terms_oracle(p: int, k: int, j: int) -> tuple:
    """The terms `predict_A`, `predict_A_prime` and `predict_moment` give at
    level j mod p^k by those windows: "A", "A'", or None where the
    function raises RegimeMismatch."""
    window = classify_regime(k, j)
    a = "A" if window in A_WINDOWS else None
    a_prime = "A'" if window in A_PRIME_WINDOWS and p >= 5 else None
    return a, a_prime, a or a_prime


def shifted_autocorrelation(a: FiniteSequence, h: int) -> complex:
    """sum_n a_{n+h} * conj(a_n) over the overlap of the two supports."""
    arr = a.coefficients
    n = arr.size
    if abs(h) >= n:
        return 0j
    if h >= 0:
        # vdot conjugates its first argument
        return complex(np.vdot(arr[: n - h], arr[h:]))
    return complex(np.vdot(arr[-h:], arr[: n + h]))


def additive_row_oracle(m: PrimePowerModulus, n: int) -> np.ndarray:
    """e_q(n g^i) for i in [0, phi), gathered from q_roots at n g^i mod q, the
    angle reduced by `%`: the product route for every n, units included."""
    return m.q_roots[n % m.q * m.powers % m.q]


def generator_row_oracle(m: PrimePowerModulus, c: int) -> np.ndarray:
    """e(ci/phi) for i in [0, phi), the angle reduced by `%`."""
    return m.phi_roots[c * np.arange(m.phi) % m.phi]


def gauss_sum_oracle(chi: DirichletCharacter, n: int = 1) -> complex:
    """sum_i e(ci/phi) e_q(n g^i), both rows gathered with `%`-reduced
    angles and multiplied elementwise, then summed in generator order."""
    m = chi.modulus
    return complex((generator_row_oracle(m, chi.c) * additive_row_oracle(m, n)).sum())


def value_table_oracle(chi: DirichletCharacter) -> np.ndarray:
    """chi(n) for n = 0..q-1, zero off the units: e(ci/phi) scattered onto
    g^i, the angle reduced by `%`."""
    m = chi.modulus
    out = np.zeros(m.q, dtype=np.complex128)
    out[m.powers] = generator_row_oracle(m, chi.c)
    return out


def character_rows_oracle(
    m: PrimePowerModulus, d: np.ndarray, cs: np.ndarray
) -> np.ndarray:
    """chi_c(n) for each exponent c in cs (rows) and each dlog d (columns),
    the angles reduced by `%`, 0 where d < 0."""
    rows = m.phi_roots[cs[:, None] * d % m.phi]
    rows[:, d < 0] = 0
    return rows


def twisted_sum_oracle(a: FiniteSequence, chi: DirichletCharacter) -> complex:
    """sum_n a_n chi(n) over the support, one character at a time, with chi
    read from its value table instead of a dlog gather."""
    idx = np.arange(a.support_start, a.support_end + 1) % chi.modulus.q
    return complex(np.sum(a.coefficients * chi.value_table()[idx]))


def char_sum_S_oracle(
    chi: DirichletCharacter, h: int, j: int, freqs: Sequence[int]
) -> list[complex]:
    """sum over alpha mod q of chi(alpha + h*q0) conj(chi(alpha)) e_q(alpha n)
    for one shift h, one frequency at a time, each forming its own phase
    vector."""
    q = chi.modulus.q
    q0 = chi.modulus.p**j
    table = chi.value_table()
    alpha = np.arange(q)
    w = table[(alpha + h * q0) % q] * np.conj(table)
    return [
        complex(np.sum(w * np.exp((2j * np.pi * (n % q) / q) * alpha)))
        for n in freqs
    ]


def lemma9_fold_oracle(
    chi: DirichletCharacter, j: int, A: int, B: int
) -> tuple[np.ndarray, np.ndarray]:
    """The |S| tables of a scan to A, B: `char_sum_S_oracle` at each shift
    1, -1, ..., A, -A over the frequencies 1, -1, ..., B, -B, 0, folded one
    row at a time with Python's abs of each value, the rows of h and -h
    added into one row of abs_s (A x 2B) and one entry of the n = 0 column."""
    freqs = [sn for n in range(1, B + 1) for sn in (n, -n)] + [0]
    abs_s, zero_col = np.zeros((A, 2 * B)), np.zeros(A)
    for h in range(1, A + 1):
        for sh in (h, -h):
            *sums, zero = map(abs, char_sum_S_oracle(chi, sh, j, freqs))
            abs_s[h - 1] += sums
            zero_col[h - 1] += zero
    return abs_s, zero_col


def coset_exponents_oracle(spec: CosetSpec) -> list:
    """Exponents of the coset's members, parity-filtered, ascending: the
    base exponent plus every multiple of p^(k-j) below the subgroup order,
    reduced mod phi and sorted."""
    m = spec.base.modulus
    step = m.p ** (m.k - spec.j)
    want = {"all": (0, 1), "even": (0,), "odd": (1,)}[spec.parity]
    exponents = sorted(
        (spec.base.c + i * step) % m.phi
        for i in range(phi_prime_power(m.p, spec.j))
    )
    return [c for c in exponents if c % 2 in want]


def coset_mean_square(a: FiniteSequence, chi: DirichletCharacter, j: int) -> float:
    """sum of |sum_n a_n eta(n)|^2 over the level-j coset of chi, one member
    at a time."""
    total = 0.0
    for eta in enumerate_coset(CosetSpec(chi, j, "all")):
        total += abs(twisted_sum_oracle(a, eta)) ** 2
    return total


def roots_oracle(n: int) -> np.ndarray:
    """e(j/n) for j in [0, n), from one expression on the whole index."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def bernoulli_oracle(n: int) -> list:
    """B_0 .. B_n as exact Fractions by the Akiyama-Tanigawa algorithm, which
    shares no recurrence with the library's (it gives B_1 = +1/2; only the
    even ones are compared)."""
    out, a = [], []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def em_coefficients_oracle() -> tuple:
    """`_em_coefficients()` from the Fraction oracle: B_{2j}/(2j)! for
    j = 1..J and |B_{2J+2}|/(2J+2)!, each rounded once to a double."""
    top = 2 * _EM_BERNOULLI_TERMS + 2
    b = bernoulli_oracle(top)
    coefs = tuple(
        float(b[2 * j] / math.factorial(2 * j))
        for j in range(1, _EM_BERNOULLI_TERMS + 1)
    )
    return coefs, float(abs(b[top]) / math.factorial(top))


def em_hurwitz_oracle(
    s: complex, x: np.ndarray, target: float = _EM_TAIL_TARGET
) -> tuple[np.ndarray, float]:
    """`_em_hurwitz` with one whole-array power per shift term."""
    coefs, _ = _em_coefficients()
    n_shift, bound = em_shift(s, float(x.min()), x.size + 64, target)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for n in range(n_shift):
        acc += _power(n + x, s)
    w = n_shift + x
    wpow = _power(w, s)
    acc += w * wpow / (s - 1) + 0.5 * wpow
    wpow /= w
    w2 = w * w
    rising = complex(s)
    for j, coef in enumerate(coefs, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        acc += coef * rising * wpow
        wpow = wpow / w2
    return acc, bound


def zeta_grid_oracle(q: int, t: float, centres: int) -> tuple[np.ndarray, float, float]:
    """(values, tail, sum of |values|) of `_zeta_grid` on the route of
    `centres` Taylor centres (0: Euler-Maclaurin), each q-length step taken
    on the whole grid at once."""
    s = complex(0.5, t)
    if not centres:
        vals, bound = em_hurwitz_oracle(s, np.arange(1, q + 1, dtype=np.float64) / q)
        return vals, bound, float(np.abs(vals).sum())
    degree, remainder = _taylor_degree(t, centres)
    r = 0.5 / centres
    c = 1 + (2 * np.arange(centres) + 1) * r
    rows, em_tail, factor = [], 0.0, 1 + 0j
    for n in range(degree + 1):
        z, tail = em_hurwitz_oracle(s + n, c, _CENTRE_TAIL_TARGET)
        rows.append(factor * z)
        em_tail += abs(factor) * r**n * tail
        factor *= -(s + n) / (n + 1)
    re = np.array([row.real for row in rows])
    im = np.array([row.imag for row in rows])
    orders = np.arange(1, degree + 1)
    scale = _gamma(8 * orders + 4) * r**orders
    terms = scale[:, None] * (np.abs(re[1:]) + np.abs(im[1:]))
    rounding = float(terms.sum(axis=0).max())
    a = np.arange(1, q + 1)
    vals = _power(a / q, s)
    k = np.minimum(a * centres // q, centres - 1)
    d = (a * (2 * centres) - (2 * k + 1) * q) / (2 * centres * q)
    acc_re, acc_im = re[degree][k], im[degree][k]
    for n in range(degree - 1, -1, -1):
        acc_re = acc_re * d + re[n][k]
        acc_im = acc_im * d + im[n][k]
    vals.real += acc_re
    vals.imag += acc_im
    return vals, em_tail + remainder + rounding, float(np.abs(vals).sum())


def character_sums_oracle(row: np.ndarray) -> np.ndarray:
    """sum_i e(ci/phi) row[i] for every c, summed directly in long double
    with each angle ci reduced exactly mod phi, as complex128; 64 exponents
    at a time.  Against an FFT in double its own error is negligible when
    long double carries at least 63 bits."""
    phi = row.size
    idx = np.arange(phi)
    angle = 8 * np.arctan(np.longdouble(1)) * idx.astype(np.longdouble) / phi
    cos_table, sin_table = np.cos(angle), np.sin(angle)
    re, im = row.real.astype(np.longdouble), row.imag.astype(np.longdouble)
    out = np.empty(phi, dtype=np.complex128)
    for lo in range(0, phi, 64):
        j = np.arange(lo, min(lo + 64, phi))[:, None] * idx % phi
        cos, sin = cos_table[j], sin_table[j]
        out.real[lo : lo + 64] = (cos * re - sin * im).sum(axis=1)
        out.imag[lo : lo + 64] = (cos * im + sin * re).sum(axis=1)
    return out


def dirichlet_kernel(H: int, x: float) -> complex:
    """sum_{1 <= h <= H} e(hx) with e(x) = exp(2 pi i x)."""
    if H < 1:
        raise BadShiftBound(f"kernel length H = {H} must be >= 1")
    return sum(cmath.exp(2j * cmath.pi * h * x) for h in range(1, H + 1))


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta(s, x) = sum over n >= 0 of (n + x)^(-s), for Re(s) > 0, s != 1."""
    if x <= 0:
        raise PreconditionViolated(f"need x > 0, got {x}")
    vals, _ = _em_hurwitz(s, np.array([float(x)]))
    return complex(vals[0])


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


def rows_as_dicts(keys: list, rows: list) -> list[dict]:
    """Tuple rows as the dict rows the oracle renderer reads: a complex
    value becomes its [re, im] pair."""
    return [
        dict(
            zip(keys, ([v.real, v.imag] if isinstance(v, complex) else v for v in row))
        )
        for row in rows
    ]


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(v) -> str:
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return json.dumps(float(v))
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def _csv_cells(d: dict) -> list:
    """A row's cells in column order; a [re, im] pair fills two."""
    cells = []
    for v in d.values():
        if isinstance(v, (list, tuple)):
            cells += map(_fmt17, v)
        else:
            cells.append(_fmt17(v) if isinstance(v, float) else v)
    return cells


def render_rows_oracle(dicts: list[dict], fmt: str) -> str:
    """Dict rows as 'csv' (through csv.writer) or 'jsonl' text: the report
    renderer as it was before rows became tuples, with each JSON value that
    is not an int or a bool written by json.dumps."""
    if fmt == "jsonl":
        return "".join(
            "{" + ", ".join(f'"{k}": {_json_value(v)}' for k, v in d.items()) + "}\n"
            for d in dicts
        )
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if not dicts:
        return ""
    header = [
        k + part
        for k, v in dicts[0].items()
        for part in (("_re", "_im") if isinstance(v, (list, tuple)) else ("",))
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cells, dicts))
    return buf.getvalue()
