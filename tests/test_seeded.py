"""`seeded.SeededStream` against its oracle, `numpy.random.default_rng`:
the same seed and the same calls in the same order give the same values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlfun.errors import PreconditionViolated
from cosetlfun.seeded import SeededStream

# one-word seeds, seeds past 2^64 (several SeedSequence words) and seeds past
# 2^128, whose words beyond the 4-word pool take the second mixing pass
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 11, 47, 2**32, 2**64 - 1, 2**64, 2**70]),
    st.integers(2**32, 2**64 + 2**40),
    st.integers(2**128, 2**300),
)
# span edges: no draw, the largest rejecting span, the span with no
# rejection at all, and spans that reject about half their draws
SPANS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)
DRAWS = st.one_of(
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), SPANS),
    # refills hold 4096 outputs (512 before): n = 0, and n ending at or
    # crossing a refill
    st.tuples(
        st.just("random"),
        st.sampled_from([0, 1, 511, 512, 513, 1500, 4095, 4096, 4097, 9000]),
    ),
    st.tuples(st.just("random"), st.integers(0, 1100)),
    st.tuples(st.just("choice"), st.integers(1, 60), st.booleans()),
)


@given(SEEDS, st.lists(DRAWS, max_size=30))
def test_matches_default_rng(seed, draws):
    ours, oracle = SeededStream(seed), np.random.default_rng(seed)
    for kind, *args in draws:
        if kind == "integers":
            low, span = args
            assert ours.integers(low, low + span) == oracle.integers(low, low + span)
        elif kind == "random":
            got, want = ours.random(*args), oracle.random(*args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            size, as_array = args
            seq = list(range(7, 7 + 3 * size, 3))
            seq = np.array(seq, dtype=np.int64) if as_array else seq
            assert ours.choice(seq) == oracle.choice(seq)


@pytest.mark.parametrize("seed", [0, 47, 2**70])
def test_cli_draw_pattern(seed):
    # vdc's calls: two bounded ints and two runs of doubles per trial
    ours, oracle = SeededStream(seed), np.random.default_rng(seed)
    for _ in range(300):
        n = ours.integers(1, 201)
        assert n == oracle.integers(1, 201)
        assert ours.integers(1, n + 1) == oracle.integers(1, n + 1)
        for _ in range(2):
            assert np.array_equal(ours.random(n), oracle.random(n))


@pytest.mark.parametrize(
    "low, high",
    [
        (0, 2**32 + 1),  # numpy's 64-bit Lemire path, not carried here
        (5, 5),
        (5, 4),
        (-(2**63) - 1, -(2**63) + 1),  # low below int64
        (2**63 - 1, 2**63 + 1),  # high - 1 above int64
    ],
)
def test_refuses_ranges_off_the_32_bit_path(low, high):
    stream = SeededStream(1)
    with pytest.raises(PreconditionViolated):
        stream.integers(low, high)
    # a refusal draws nothing
    assert stream.random(3).tolist() == np.random.default_rng(1).random(3).tolist()


def test_empty_choice_refused():
    with pytest.raises(PreconditionViolated):
        SeededStream(1).choice([])
