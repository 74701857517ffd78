import math
from contextlib import contextmanager

from hypothesis import HealthCheck, settings

from cosetlfun import lcentral

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def brute_unit_sum(chi, n: int) -> complex:
    """Reference Gauss sum: plain Python loop, cmath phases."""
    import cmath

    q = chi.modulus.q
    total = 0j
    for t in range(1, q):
        if t % chi.modulus.p == 0:
            continue
        total += complex(chi(t)) * cmath.exp(2j * cmath.pi * n * t / q)
    return total


@contextmanager
def forced_route(centres: int):
    """Every zeta grid built in the block takes `centres` Taylor centres, or
    the Euler-Maclaurin route at 0, whatever `grid_route` would pick."""
    saved = lcentral.grid_route
    lcentral.grid_route = lambda q, t, grids=1: centres
    lcentral._zeta_grid.cache_clear()
    try:
        yield
    finally:
        lcentral.grid_route = saved
        lcentral._zeta_grid.cache_clear()
