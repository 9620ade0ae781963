"""The array derivation of keyed streams against numpy's own generators.

keyed_uniforms must return, element for element, the first uniform of
numpy's SeedSequence([seed, *key]) stream through PCG64, and keyed_generators
must yield those streams themselves: the same entropy mix and PCG64 seeding,
only computed over arrays of keys. chan3d.rng.substream shares the derivation
under test, so the oracles build numpy's SeedSequence directly.
"""
import math

import numpy as np
import pytest

import chan3d.campaign as campaign
from chan3d.config import default_config
from chan3d.rng import (
    STREAM_LOS_STATE, STREAM_SSP, keyed_generators, keyed_uniforms, state_generators, substream,
)

SEEDS = [0, 1, 7, 123456789, 2**32 + 5, 2**64 + 3]


def _stream(seed, *key):
    """The generator of a key, straight from numpy's SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _keys(*key):
    """The keys of broadcast key components, in C order, as tuples of ints."""
    comps = np.broadcast_arrays(*(np.asarray(k) for k in key))
    return list(zip(*(c.ravel().tolist() for c in comps))), comps[0].shape


def _oracle(seed, *key):
    """The first uniform of each key's stream, in the broadcast shape of the keys."""
    keys, shape = _keys(*key)
    return np.array([_stream(seed, *k).random() for k in keys]).reshape(shape)


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
    assert one.shape == () and one == _stream(2**64 + 3, STREAM_LOS_STATE, 9).random()


def _draws(rng, n=5, m=3):
    """A stream's draws of every kind the campaign makes, in one order."""
    return [rng.random(), rng.standard_normal(7), rng.integers(0, 2, n),
            rng.normal(0.0, 3.0, n), rng.uniform(0.0, 2.0 * math.pi, (n, m, 4))]


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_generators_equal_seed_sequence_streams(seed):
    # Each stream, drawn in full before the next is taken, is numpy's own
    # stream of its key, and the streams come in the C order of the broadcast
    # keys: a grid whose components meet late, with keys of 0 and 2**32 - 1,
    # and a key of scalars alone. substream is the one-key form.
    ue = np.array([0, 9, 2**32 - 1])[:, None, None]
    cell, slot = np.arange(4)[:, None], np.array([0, 2**32 - 1], dtype=np.uint64)
    for key in [(ue, 7, cell, slot), (STREAM_SSP, 0, 2**32 - 1)]:
        keys, _ = _keys(*key)
        got = [_draws(rng) for rng in keyed_generators(seed, *key)]
        assert len(got) == len(keys)
        for draws, k in zip(got, keys):
            for a, b in zip(draws, _draws(_stream(seed, *k))):
                assert np.array_equal(a, b), (seed, k)
    for a, b in zip(_draws(substream(seed, STREAM_SSP, 4)), _draws(_stream(seed, STREAM_SSP, 4))):
        assert np.array_equal(a, b)


class _Captured(Exception):
    pass


def test_campaign_ssp_state_rows_drive_each_ues_streams(tmp_path, monkeypatch):
    # Phase 2 derives every UE's (site, cell) SSP stream states in one pass
    # per campaign; on a 2-ring layout (57 cells) row u of that table drives
    # the streams that keyed_generators derives for UE u alone, for the first
    # and the last UE.
    contexts = []

    def capture(ctx, n_ues, workers):
        contexts.append(ctx)
        raise _Captured

    monkeypatch.setattr(campaign, "_map_records", capture)
    cfg = default_config("UMa", master_seed=2**32 + 5)
    cfg.layout.n_rings, cfg.run.phase, cfg.run.n_ue_per_cell = 2, 2, 1
    cfg.run.output_dir = str(tmp_path)
    with pytest.raises(_Captured):
        campaign.run_campaign(cfg)
    [ctx] = contexts
    sites, cells = ctx.cell_site, np.arange(57) % 3
    assert sites.shape == (57,) and all(half.shape == (57, 57) for half in ctx.ssp_states)
    for ue in (0, 56):
        row = [_draws(rng) for rng in state_generators(half[ue] for half in ctx.ssp_states)]
        alone = [_draws(rng) for rng in keyed_generators(cfg.run.master_seed, STREAM_SSP, ue, sites, cells)]
        assert len(row) == len(alone) == 57
        for got, want in zip(row, alone):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), ue


def test_empty_keys():
    assert keyed_uniforms(3, STREAM_LOS_STATE, np.arange(0)).shape == (0,)
    empty = keyed_uniforms(3, STREAM_LOS_STATE, np.arange(0)[:, None], np.arange(19))
    assert empty.shape == (0, 19) and empty.dtype == float
    assert list(keyed_generators(3, STREAM_LOS_STATE, np.arange(0)[:, None], np.arange(19))) == []


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
    with pytest.raises(ValueError):
        next(keyed_generators(seed, *key))
