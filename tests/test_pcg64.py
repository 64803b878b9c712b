"""``claimpolish.pcg64.PCG64`` draws what ``np.random.default_rng`` draws.

The package shuffles the ranker's training order and draws MACE's
starting points from its own PCG64, so that no command imports
``numpy.random``; numpy's generator is the oracle here.
"""

import numpy as np
import pytest

from claimpolish.pcg64 import PCG64

SEEDS = [0, 1, 42, 2**32 + 5, 2**64 + 3, 10**30]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 600, 3000])
@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_equals_numpys(seed, n):
    expected = np.arange(n)
    numpy_rng = np.random.default_rng(seed)
    order = list(range(n))
    rng = PCG64(seed)
    for _ in range(3):  # the stream, and its spare uint32, carry over between shuffles
        numpy_rng.shuffle(expected)
        rng.shuffle(order)
        assert order == expected.tolist()


@pytest.mark.parametrize("seed", [*range(20), 2**64 + 11])
def test_uniform_equals_numpys_with_maces_list_seeds(seed):
    for restart in range(10):
        numpy_rng = np.random.default_rng([seed, restart])
        rng = PCG64(seed, restart)
        assert rng.uniform(0.3, 0.95, 12) == numpy_rng.uniform(0.3, 0.95, size=12).tolist()
        expected = numpy_rng.uniform(0.5, 1.5, size=(12, 5))
        assert rng.uniform(0.5, 1.5, 60) == expected.ravel().tolist()


@pytest.mark.parametrize("entropy", [(-1,), (0, -1)])
def test_a_negative_seed_raises_as_numpys_does(entropy):
    with pytest.raises(ValueError):
        np.random.default_rng(list(entropy))
    with pytest.raises(ValueError):
        PCG64(*entropy)
