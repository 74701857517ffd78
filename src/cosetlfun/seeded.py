"""`numpy.random.default_rng(seed)`'s stream bit for bit, without importing
`numpy.random`: SeedSequence, PCG64 (O'Neill, HMC-CS-2014-0905) and numpy's
int64 path of Lemire's bounded integers (ACM TOMACS 29, 2019)."""

from itertools import chain, permutations, product

import numpy as np

from .errors import PreconditionViolated

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LANES = 4096  # states per refill, each held as uint64 halves hi, lo


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int) -> tuple:
    """The 128-bit states s = hi * 2^64 + lo taken to mult * s + add mod
    2^128, as new halves.  The high word of lo times mult's low word is
    formed from 32-bit limbs, each partial product below 2^64."""
    m_hi, m_lo, a_hi, a_lo = map(np.uint64, (mult >> 64, mult & _M64, add >> 64, add & _M64))
    l0, l1, n0, n1 = lo & _M32, lo >> 32, m_lo & _M32, m_lo >> 32
    cross = l1 * n0 + (l0 * n0 >> 32)
    carry = (cross & _M32) + l0 * n1
    new_lo = lo * m_lo + a_lo
    new_hi = l1 * n1 + (cross >> 32) + (carry >> 32) + hi * m_lo + lo * m_hi + a_hi
    return new_hi + (new_lo < a_lo), new_lo


def _hashmix(v: int, h: list) -> int:  # SeedSequence's; h: [constant, multiplier]
    v, h[0] = v ^ h[0], h[0] * h[1] & _M32
    v = v * h[0] & _M32
    return v ^ v >> 16


class SeededStream:
    """`default_rng(seed)`'s `integers`, `choice` and `random`, in call order."""

    def __init__(self, seed: int) -> None:
        # SeedSequence(seed).generate_state(4, np.uint64), as 32-bit halves
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        h = [0x43B0D7E5, 0x931E8875]
        pool = [_hashmix(x, h) for x in (words + [0] * 3)[:4]] + words[4:]
        tail = product(range(4, len(pool)), range(4))  # the words past the pool
        for src, dst in chain(permutations(range(4), 2), tail):
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], h)) & _M32
            pool[dst] = r ^ r >> 16
        h = [0x8B51F9DD, 0x58F38DED]
        w = [_hashmix(pool[i % 4], h) for i in range(8)]
        s_hi, s_lo, i_hi, i_lo = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        # PCG64's seeding; lane i of the first refill holds state i + 1, and
        # each doubling appends the lanes' images under the map of as many
        # steps, then squares that map: at the end, the jump of _LANES steps
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        s = (((inc + (s_hi << 64 | s_lo)) * _MULT + inc) * _MULT + inc) & _M128
        hi, lo = np.array([s >> 64], np.uint64), np.array([s & _M64], np.uint64)
        self._jump = (_MULT, inc)
        while hi.size < _LANES:
            mult, add = self._jump
            hi, lo = map(np.concatenate, zip((hi, lo), _affine(hi, lo, mult, add)))
            self._jump = (mult * mult & _M128, (mult * add + add) & _M128)
        self._lanes, self._buf, self._half = (hi, lo), np.empty(0, np.uint64), []

    def _outputs(self, n: int) -> np.ndarray:  # the next n 64-bit outputs
        blocks = [self._buf]
        for _ in range(-((self._buf.size - n) // _LANES)):  # ceil of the refills
            hi, lo = self._lanes
            x, rot = hi ^ lo, hi >> 58
            blocks.append(x >> rot | x << (64 - rot & 63))
            self._lanes = _affine(hi, lo, *self._jump)
        if len(blocks) > 1:  # else a slice of the kept outputs, not a copy
            self._buf = np.concatenate(blocks)
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def integers(self, low: int, high: int) -> int:
        """Uniform on [low, high), for 1 <= high - low <= 2^32 within int64."""
        span = high - low
        if not (1 <= span <= 1 << 32 and -(1 << 63) <= low and high <= 1 << 63):
            raise PreconditionViolated(f"integers({low}, {high}): no 32-bit int64 path")
        m = 0 if span == 1 else None
        while m is None or m & _M32 < (1 << 32) % span:
            if not self._half:  # 32-bit draws: an output's low half, then its high
                x = int(self._outputs(1)[0])
                self._half = [x >> 32, x & _M32]
            m = self._half.pop() * span
        return low + (m >> 32)

    def choice(self, seq):
        """An element of seq, as `Generator.choice(seq)` draws it."""
        return seq[self.integers(0, len(seq))]

    def random(self, n: int) -> np.ndarray:
        """n float64 values on [0, 1), 53 random bits each."""
        return (self._outputs(n) >> 11) * 2.0**-53
