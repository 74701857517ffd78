import math

from hypothesis import HealthCheck, settings

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
