"""numpy's default random stream in pure Python, for the two draws the
package makes.

``PCG64(*entropy)`` is ``np.random.default_rng(entropy)``: the PCG64
generator (O'Neill 2014, XSL-RR output of a 128-bit LCG) seeded through
numpy's ``SeedSequence``. ``shuffle`` and ``uniform`` give the bits of
``Generator.shuffle`` on a 1-D array and ``Generator.uniform``, so the
ranker's training and MACE's restarts keep numpy's results without
importing ``numpy.random``.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # the 128-bit LCG's

# SeedSequence's hash constants; it mixes the entropy into a pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(entropy: tuple[int, ...]) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``."""
    words = []  # the uint32 words SeedSequence reads: each integer's, low word first
    for value in entropy:
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # 8 uint32 words, paired little-endian into 4 uint64
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The stream of ``np.random.default_rng(entropy)``, where ``entropy``
    is one non-negative integer or several (numpy's list seed)."""

    def __init__(self, *entropy: int):
        s0, s1, s2, s3 = _seed_words(entropy)
        self._inc = (s2 << 64 | s3) << 1 & _MASK128 | 1
        # a step from state 0 gives inc; add initstate, then another step
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _MASK128
        self._spare: int | None = None  # the high half of a 64-bit output, as a uint32

    def _next64(self) -> int:
        """Step, then the XSL-RR output of the new state."""
        self._state = state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        high = state >> 64
        word = (high ^ state) & _MASK64
        rot = high >> 58
        return (word >> rot | word << (64 - rot)) & _MASK64

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place as ``Generator.shuffle`` shuffles a
        1-D array: Fisher-Yates from the end, each index drawn as a masked
        uint32 and rejected while above its bound."""
        if len(items) > _MASK32:
            raise ValueError(f"cannot shuffle {len(items)} items: at most {_MASK32}")
        # _next64 and the uint32 halving inlined: a ranker shuffles 20 times
        state, inc, spare = self._state, self._inc, self._spare
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if spare is None:
                    state = (state * _MULTIPLIER + inc) & _MASK128
                    high = state >> 64
                    word = (high ^ state) & _MASK64
                    rot = high >> 58
                    word = (word >> rot | word << (64 - rot)) & _MASK64
                    j = word & mask  # the low half first; mask < 2**32
                    spare = word >> 32
                else:
                    j, spare = spare & mask, None
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._state, self._spare = state, spare

    def uniform(self, lo: float, hi: float, n: int) -> list[float]:
        """``Generator.uniform(lo, hi, size=n)`` as a list: ``lo`` plus
        ``hi - lo`` times a 53-bit double."""
        span = hi - lo
        return [lo + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(n)]
