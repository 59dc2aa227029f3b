import numpy as np
import pytest

from sgdmlab import continuous
from sgdmlab.continuous import sde_sample_paths
from sgdmlab.problems import quadratic_new
from sgdmlab.seeding import rngs_for

# master seeds of one to five 32-bit words, at and across word boundaries
MASTER_SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**130]


def oracle(master_seed, run_index):
    """NumPy's own seeding of run ``run_index``, independent of sgdmlab."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))


def assert_same_streams(rngs, master_seed, indices):
    assert len(rngs) == len(indices)
    for rng, i in zip(rngs, indices):
        want = oracle(master_seed, i)
        assert rng.bit_generator.state == want.bit_generator.state, (master_seed, i)
        np.testing.assert_array_equal(rng.random(64), want.random(64))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_batched_generators_equal_numpy_seeding(master_seed):
    n = 10_000 if master_seed in (0, 2**130) else 1000
    assert_same_streams(rngs_for(master_seed, n), master_seed, range(n))


def test_offset_start_and_empty_batch():
    # runs always start at index 0; an empty batch builds no generator
    assert rngs_for(9, 0) == []


def test_negative_inputs_rejected():
    for args in ((-1, 3), (0, -1)):
        with pytest.raises(ValueError):
            rngs_for(*args)


def test_noiseless_sde_builds_no_generators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless SDE needs no generators")

    monkeypatch.setattr(continuous, "rngs_for", refuse)
    obj = quadratic_new(np.eye(2))
    _, X, _ = sde_sample_paths(obj, 0.1, 1.0, 2.0, 3, 0, np.ones(2), np.zeros(2),
                               noise_scale=0.0)
    assert np.all(np.isfinite(X))
