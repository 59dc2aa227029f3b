import numpy as np
import pytest

from reference import numpy_rng as oracle
from sgdmlab import continuous
from sgdmlab.continuous import sde_sample_paths
from sgdmlab.problems import quadratic_new
from sgdmlab.seeding import _generators, _SeedStates, rng_for, rngs_for

# master seeds of one to five 32-bit words, at and across word boundaries
MASTER_SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**130]


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


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_one_generator_equals_numpy_seeding(master_seed):
    # the first indices and the last one a spawn-key word holds, through
    # rng_for, the batch and the derivation's uint32 array form
    indices = [0, 1, 2**32 - 1]
    assert_same_streams([rng_for(master_seed, i) for i in indices], master_seed, indices)
    assert_same_streams(rngs_for(master_seed, 2), master_seed, indices[:2])
    assert_same_streams(_generators(master_seed, np.array(indices, dtype=np.uint32)),
                        master_seed, indices)


def test_offset_start_and_empty_batch():
    # runs always start at index 0; an empty batch builds no generator
    assert rngs_for(9, 0) == []


@pytest.mark.parametrize("make, args", [
    (rng_for, (-1, 3)), (rng_for, (0, -1)), (rng_for, (0, 2**32)),
    # a batch past the last spawn-key word is refused before any index is made
    (rngs_for, (-1, 3)), (rngs_for, (0, -1)), (rngs_for, (0, 2**32 + 1)),
], ids=["rng-master", "rng-negative", "rng-2**32", "rngs-master", "rngs-negative",
        "rngs-2**32+1"])
def test_out_of_range_inputs_rejected(make, args):
    with pytest.raises(ValueError):
        make(*args)


@pytest.mark.parametrize("n_words, dtype", [(8, np.uint64), (4, np.uint32)])
def test_seed_states_refuse_any_other_request(n_words, dtype):
    # PCG64 asks for 4 uint64 words; no other request can be served
    states = _SeedStates(np.zeros((1, 4), dtype=np.uint64))
    with pytest.raises(ValueError, match="4 uint64 words only"):
        states.generate_state(n_words, dtype)


def test_noiseless_sde_builds_no_generators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless SDE needs no generators")

    monkeypatch.setattr(continuous, "rngs_for", refuse)
    obj = quadratic_new(np.eye(2))
    _, X, _ = sde_sample_paths(obj, 0.1, 1.0, 2.0, 3, 0, np.ones(2), np.zeros(2),
                               noise_scale=0.0)
    assert np.all(np.isfinite(X))
