"""The block-by-block kernels: bit-identical at any block length, and small.

The Hurwitz grid, the root tables, the character tables and the
Euler-Maclaurin shift terms are built in slices of at most `modular.BLOCK`
elements.  At block lengths that cut the arrays at many different places
they must give the bits of the whole-array expressions in tests/oracles.py,
and at the default length they must hold little beyond their output.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cosetlfun import lcentral, modular
from cosetlfun.characters import DirichletCharacter
from cosetlfun.batched import l_values
from cosetlfun.lcentral import _zeta_grid, l_value
from cosetlfun.modular import PrimePowerModulus, modulus
from conftest import forced_route
from oracles import roots_oracle, value_table_oracle, zeta_grid_oracle

MODULI = [(3, 4), (3, 6), (5, 3), (7, 3)]
# (t, centres): the Euler-Maclaurin route (0) and Taylor routes whose
# centre rows are shorter and longer than a block of 64
ROUTES = [(0.0, 0), (11.0, 0), (0.0, 16), (11.0, 256)]


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


@pytest.fixture(params=[1, 7, 64])
def block(request, monkeypatch):
    monkeypatch.setattr(modular, "BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("pk", MODULI)
@pytest.mark.parametrize("t, centres", ROUTES)
def test_zeta_grid_bits(block, pk, t, centres):
    q = pk[0] ** pk[1]
    with forced_route(centres):
        vals, tail, rounding = _zeta_grid(q, t)
    want_vals, want_tail, want_abs_sum = zeta_grid_oracle(q, t, centres)
    assert same_bits(vals, want_vals)
    assert (tail, rounding) == (want_tail, (math.log2(q) + 4) * 2**-52 * want_abs_sum)


@pytest.mark.parametrize("pk", MODULI)
def test_tables_bits(block, pk):
    # a fresh modulus, so that its root tables are built at this block length
    m = PrimePowerModulus(*pk)
    assert same_bits(m.phi_roots, roots_oracle(m.phi))
    assert same_bits(m.q_roots, roots_oracle(m.q))
    for c in (0, 1, 2, m.phi // 3, m.phi - 1):
        chi = DirichletCharacter(m, c)
        assert same_bits(chi.value_table(), value_table_oracle(chi))


def traced_peak(f) -> int:
    """Bytes that calling f allocates at its peak above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


BLOCK_BYTES = 16 * modular.BLOCK  # one block of complex values


def test_zeta_grid_build_holds_one_grid():
    # the grid, a few blocks, and the q-length |values| that the abs-sum
    # reads; the whole-array build held 3.6 grids here
    q, t = 3**10, 11.0
    assert lcentral.grid_route(q, t) > 0
    _zeta_grid.cache_clear()
    peak = traced_peak(lambda: _zeta_grid(q, t))
    assert peak <= 16 * q + 8 * q + 4 * BLOCK_BYTES


def test_l_value_adds_one_table():
    # the character table, into which the products go, and a few blocks;
    # the grid is built and cached before tracing
    m = modulus(3, 10)
    chi = DirichletCharacter(m, 1)
    l_value(chi, 11.0)
    peak = traced_peak(lambda: l_value(chi, 11.0))
    assert peak <= 16 * m.q + 4 * BLOCK_BYTES


def test_l_values_adds_row_and_output():
    # the gathered row, the transform's output and a few blocks above the
    # cached grid; the pocketfft plan and its scratch are outside the
    # Python allocator and not counted here
    m = modulus(3, 10)
    l_values(m, 11.0)
    peak = traced_peak(lambda: l_values(m, 11.0))
    assert peak <= 32 * m.phi + 4 * BLOCK_BYTES
