"""The array form of the keyed LOS uniform against numpy's own generators.

keyed_uniforms must return, element for element, the first uniform of
substream(seed, *key): the same SeedSequence entropy mix and PCG64 stream,
only computed over arrays of keys.
"""
import numpy as np
import pytest

from chan3d.rng import STREAM_LOS_STATE, keyed_uniforms, substream

SEEDS = [0, 1, 7, 123456789, 2**32 + 5, 2**64 + 3]


def _oracle(seed, *key):
    """substream(seed, *k).random() per element of the broadcast key arrays."""
    comps = np.broadcast_arrays(*(np.asarray(k) for k in key))
    out = [substream(seed, *(int(c) for c in k)).random() for k in zip(*(c.ravel() for c in comps))]
    return np.array(out).reshape(comps[0].shape)


def test_ue_site_grid_equals_substream():
    ue, site = np.arange(40)[:, None], np.arange(19)
    got = keyed_uniforms(17, STREAM_LOS_STATE, ue, site)
    assert got.shape == (40, 19)
    assert np.array_equal(got, _oracle(17, STREAM_LOS_STATE, ue, site))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_seeds_and_key_lengths_equal_substream(seed, length):
    # Seeds of one to three 32-bit words and keys of one to five words put
    # the entropy below, at and above the pool size of four.
    keys = np.random.default_rng(length).integers(0, 2**32, (25, length), dtype=np.uint64)
    keys[0], keys[1] = 0, 2**32 - 1
    comps = [keys[:, j] for j in range(length)]
    assert np.array_equal(keyed_uniforms(seed, *comps), _oracle(seed, *comps))


def test_broadcast_keys_equal_substream():
    rows = np.array([[0], [5], [2**32 - 1]], dtype=np.int64)
    cols = np.array([[3, 0, 9, 2**31]], dtype=np.uint64)
    got = keyed_uniforms(2**32 + 5, 4, rows, cols)
    assert got.shape == (3, 4)
    assert np.array_equal(got, _oracle(2**32 + 5, 4, rows, cols))
    # Each component keeps its own shape until it meets the others in the
    # pool mix: three axes that meet late with scalars between them, and
    # scalars alone (a 0-d result, whose words must not wrap as numpy scalars).
    ue, cell, slot = np.arange(3)[:, None, None], np.arange(4)[:, None], np.arange(2, dtype=np.uint32)
    got = keyed_uniforms(2**64 + 3, ue, 7, cell, 2**32 - 1, slot)
    assert got.shape == (3, 4, 2)
    assert np.array_equal(got, _oracle(2**64 + 3, ue, 7, cell, 2**32 - 1, slot))
    one = keyed_uniforms(2**64 + 3, STREAM_LOS_STATE, 9)
    assert one.shape == () and one == substream(2**64 + 3, STREAM_LOS_STATE, 9).random()


def test_empty_keys():
    assert keyed_uniforms(3, STREAM_LOS_STATE, np.arange(0)).shape == (0,)
    empty = keyed_uniforms(3, STREAM_LOS_STATE, np.arange(0)[:, None], np.arange(19))
    assert empty.shape == (0, 19) and empty.dtype == float


@pytest.mark.parametrize(
    "seed, key",
    [
        (-1, (3, 0)),
        (1, (3, -1)),
        (1, (3, np.array([0, 2**32]))),
        (1, (np.array([1.0]),)),
    ],
    ids=["negative-seed", "negative-key", "key-too-large", "float-key"],
)
def test_rejects_out_of_range_seeds_and_keys(seed, key):
    with pytest.raises(ValueError):
        keyed_uniforms(seed, *key)
