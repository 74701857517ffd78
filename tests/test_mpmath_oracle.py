"""Central values and coset moments against a 30-digit mpmath reference,
held to the error bounds the library reports, with no added slack; and the
real-logarithm power under them, held to a stated bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import forced_route
from cosetlfun.characters import CosetSpec, DirichletCharacter, enumerate_coset
from cosetlfun.batched import l_values
from cosetlfun.lcentral import _power, l_value
from cosetlfun.modular import modulus
from cosetlfun.moments import empirical_coset_moment


def mp_l_value(mpmath, chi: DirichletCharacter, t: float = 0.0):
    """L(1/2 + it, chi) = q^(-s) sum_a chi(a) zeta(s, a/q), a = 1..q-1, in
    30-digit arithmetic with exact character phases."""
    m = chi.modulus
    with mpmath.workdps(30):
        s = mpmath.mpc(0.5, t)
        total = mpmath.mpc(0)
        for a in range(1, m.q):
            d = int(m.dlog[a])
            if d < 0:
                continue
            phase = mpmath.expjpi(mpmath.mpf(2 * (chi.c * d % m.phi)) / m.phi)
            total += phase * mpmath.zeta(s, mpmath.mpf(a) / m.q)
        return mpmath.power(m.q, -s) * total


@pytest.mark.parametrize(
    "p, k, c, t",
    [
        (3, 4, 7, 0.0),
        (5, 2, 3, 0.0),
        (7, 2, 11, 0.0),
        (3, 3, 1, 6.0),
        (3, 4, 7, 10.0),
        (5, 3, 3, 11.0),
        (7, 2, 11, 20.0),
    ],
)
def test_l_value_within_reported_bound(p, k, c, t):
    mpmath = pytest.importorskip("mpmath")
    chi = DirichletCharacter(modulus(p, k), c)
    lv = l_value(chi, t)
    assert abs(lv.value - complex(mp_l_value(mpmath, chi, t))) <= lv.abs_error_bound


@pytest.mark.parametrize(
    "p, k, t",
    [(3, 4, 0.0), (5, 2, 0.0), (7, 2, 0.0), (3, 3, 6.0), (3, 4, 10.0), (5, 3, 11.0), (7, 2, 20.0)],
)
def test_l_values_within_reported_bound(p, k, t):
    # every non-principal character from one transform, against the same
    # 30-digit sums as l_value, each zeta(s, a/q) computed once
    mpmath = pytest.importorskip("mpmath")
    m = modulus(p, k)
    vals, bound = l_values(m, t)
    with mpmath.workdps(30):
        s = mpmath.mpc(0.5, t)
        zeta = [mpmath.zeta(s, mpmath.mpf(int(a)) / m.q) for a in m.powers]
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / m.phi) for j in range(m.phi)]
        scale = mpmath.power(m.q, -s)
        for c in range(1, m.phi):
            want = scale * mpmath.fsum(roots[c * i % m.phi] * z for i, z in enumerate(zeta))
            assert abs(vals[c] - complex(want)) <= bound, c


@pytest.mark.parametrize(
    "p, k, c, t, centres",
    [
        (3, 4, 7, 10.0, 4096),
        (5, 3, 3, 12.0, 4096),
        (3, 3, 1, 12.0, 4096),
        (7, 2, 11, 20.0, 4096),
        (3, 4, 7, 200.0, 2**14),
        pytest.param(
            5, 2, 3, 200.0, 2**14,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the per-value rounding allowance of l_value does not grow "
                "with |t|; at t = 200 both routes miss this value by about 7x",
            ),
        ),
    ],
)
def test_taylor_route_within_reported_bound(p, k, c, t, centres):
    mpmath = pytest.importorskip("mpmath")
    chi = DirichletCharacter(modulus(p, k), c)
    with forced_route(centres):
        lv = l_value(chi, t)
    assert abs(lv.value - complex(mp_l_value(mpmath, chi, t))) <= lv.abs_error_bound


@pytest.mark.parametrize("p, k, c, j", [(3, 4, 2, 2), (5, 3, 2, 2)])
def test_empirical_moment_within_reported_bound(p, k, c, j):
    mpmath = pytest.importorskip("mpmath")
    spec = CosetSpec(DirichletCharacter(modulus(p, k), c), j, "even")
    emp = empirical_coset_moment(spec)
    with mpmath.workdps(30):
        want = mpmath.fsum(
            abs(mp_l_value(mpmath, eta)) ** 2 for eta in enumerate_coset(spec)
        )
    assert abs(emp.value - float(want)) <= emp.error_bound


# c of the bound below, in units of 2^-52: the largest relative error less
# |t| |log x| was 2.24 against mpmath (x = 13391, t = 0) and 2.53 against a
# long-double evaluation of 2e7 points at t = 0 (x in [2^-24, 2e5]); at t = 0
# it is the rounding of log x times sigma = 1/2, plus that of exp.  Scans at
# |t| up to 200 with |t log x| just above a power of two stayed 9 below it.
_POWER_C = 4.0


@given(
    x=st.floats(2.0**-24, 2e5),
    t=st.floats(-200.0, 200.0),
)
@example(x=3.0**-10, t=0.0)
@example(x=2e5, t=200.0)
@example(x=1.0, t=-200.0)
def test_power_within_stated_bound(x, t):
    """x^(-s) at s = 1/2 + it from one real logarithm, within
    (c + |t| |log x|) 2^-52 relative: the phase t log x carries the rounding
    of log x scaled by |t|, and c the rest."""
    mpmath = pytest.importorskip("mpmath")
    got = complex(_power(np.array([x]), complex(0.5, t))[0])
    with mpmath.workdps(30):
        want = mpmath.power(mpmath.mpf(x), -mpmath.mpc(0.5, t))
        rel = float(abs(mpmath.mpc(got) - want) / abs(want))
    bound = (_POWER_C + abs(t) * abs(math.log(x))) * 2.0**-52
    assert rel <= bound, rel / bound
