"""Every character's central value from one transform: `l_values` against
`l_value`, the FFT rounding constant against a long-double direct sum, the
memory guard at its edge, and the tables the batched path leaves unbuilt."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cosetlfun.modular as modular_module
from cosetlfun.batched import fft_rounding, l_values
from cosetlfun.characters import DirichletCharacter, character_sums, primitive_exponents
from cosetlfun.errors import InvalidModulus, PreconditionViolated
from cosetlfun.lcentral import _zeta_grid, l_value
from cosetlfun.modular import PrimePowerModulus, modulus, table_bytes
from oracles import character_sums_oracle


# moduli of the l_values tests; the FFT rounding constant is checked at each
# of their phi, and at phi whose passes take the radices 8, 29, 41 and 47
LV_MODULI = [(3, 1), (3, 2), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2), (17, 2)]
FFT_MODULI = LV_MODULI + [(3, 7), (5, 4), (7, 3), (29, 2), (41, 1), (43, 2), (47, 2)]


class TestLValues:
    @given(pk=st.sampled_from(LV_MODULI), t=st.floats(0.0, 20.0))
    def test_matches_l_value_within_both_bounds(self, pk, t):
        m = modulus(*pk)
        vals, bound = l_values(m, t)
        for c in primitive_exponents(m):
            lv = l_value(DirichletCharacter(m, c), t)
            assert abs(vals[c] - lv.value) <= bound + lv.abs_error_bound, (pk, t, c)

    def test_every_nonprincipal_character_and_nan_at_principal(self):
        m = modulus(3, 3)
        vals, _ = l_values(m, 2.0)
        assert vals.shape == (m.phi,) and math.isnan(vals[0].real)
        want = [l_value(DirichletCharacter(m, c), 2.0).value for c in range(1, m.phi)]
        np.testing.assert_allclose(vals[1:], want, rtol=0, atol=1e-12)

    def test_bound_is_l_value_bound_plus_fft_term(self):
        # same grid, same tail and rounding allowance; the transform adds
        # fft_rounding(phi) sqrt(phi) ||row||_2, scaled by |q^(-s)|
        m = modulus(5, 3)
        t = 4.0
        _, bound = l_values(m, t)
        per_char = l_value(DirichletCharacter(m, 1), t).abs_error_bound
        zg, _, _ = _zeta_grid(m.q, t)
        row = zg[m.powers - 1]
        fft = fft_rounding(m.phi) * math.sqrt(m.phi) * np.linalg.norm(row) * m.q**-0.5
        assert bound == pytest.approx(per_char + fft, rel=1e-12)
        assert fft > per_char  # the transform's worst case dominates

    @pytest.mark.parametrize("pk", FFT_MODULI, ids=str)
    def test_fft_rounding_constant(self, pk):
        # the 2-norm error of the transform against a long-double direct sum,
        # on the zeta row l_values gathers and on random rows
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double carries fewer than 63 bits here")
        m = modulus(*pk)
        rng = np.random.default_rng(m.phi)
        zg, _, _ = _zeta_grid(m.q, 3.0)
        rows = [
            zg[m.powers - 1],
            np.exp(2j * np.pi * rng.random(m.phi)),
            rng.standard_normal(m.phi) + 1j * rng.standard_normal(m.phi),
        ]
        for row in rows:
            err = np.linalg.norm(character_sums(row) - character_sums_oracle(row))
            assert err <= fft_rounding(m.phi) * math.sqrt(m.phi) * np.linalg.norm(row)

    def test_fft_rounding_refuses_large_radix(self):
        # 59^2: phi = 2 * 29 * 59, a radix-59 pass; refused before the grid
        m = PrimePowerModulus(59, 2)
        _zeta_grid.cache_clear()
        with pytest.raises(PreconditionViolated, match="prime factor 59 > 47"):
            l_values(m)
        assert _zeta_grid.cache_info().currsize == 0
        assert fft_rounding(58) > 0  # 59^1: phi = 2 * 29

    def test_memory_guard_at_its_edge(self, monkeypatch):
        # tables, grid, gathered row, output and pocketfft's plan and
        # scratch of 3^6: refused one byte short, before the grid is built,
        # and run at the exact size
        m = modulus(3, 6)
        need = table_bytes(3, 6) + 16 * m.q + 64 * m.phi
        _zeta_grid.cache_clear()
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: need - 1)
        with pytest.raises(InvalidModulus, match=f"need {need} bytes"):
            l_values(m, 1.0)
        assert _zeta_grid.cache_info().currsize == 0
        monkeypatch.setattr(modular_module, "_physical_memory", lambda: need)
        vals, _ = l_values(m, 1.0)
        assert vals.size == m.phi

    @pytest.mark.parametrize(
        "read", [
            lambda m: l_value(DirichletCharacter(m, 1), 1.0),
            lambda m: DirichletCharacter(m, 2).value_table(),
            lambda m: l_values(m, 1.0),
        ],
        ids=["l_value", "value_table", "l_values"],
    )
    def test_dlog_not_built(self, read):
        m = PrimePowerModulus(3, 5)
        read(m)
        assert "dlog" not in vars(m)
