"""Immutable ϕ: read-only frozen arrays and the freeze-generation memo.

A frozen parameter's ``data`` (and every buffer of the frozen prefix ϕ)
is read-only, so ϕ cannot change behind the back of the values derived
from it — the trainable frontier, the frozen split and ϕ's fingerprint
chain — which are therefore memoized per freeze generation
(``repro.nn.module.freeze_generation``) instead of being recomputed per
use. These tests pin both halves of that contract: unsanctioned writes
raise, and every sanctioned change starts a new generation that re-derives
exactly what a fresh computation gives.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.core.partial import (
    adapt_to_task,
    partial_workload_fraction,
    prepare_partial_model,
)
from repro.nn import profiling, segmented
from repro.nn.cnn import SmallConvNet
from repro.nn.conv import Conv2d
from repro.nn.module import Parameter, bump_freeze_generation, freeze_generation
from repro.nn.serialization import theta_keys
from repro.testbed import ENGINE_SMOKE

RNG = np.random.default_rng

#: the unpatched hash, for recomputing ϕ's chain outside the memo
HASH_PHI_PREFIX = segmented.hash_phi_prefix


def _model(level="moderate"):
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, level)
    return model


@pytest.fixture
def hashes(monkeypatch):
    """Every ϕ hash, as (model, generation at hash time)."""
    calls = []

    def counting(model, split):
        calls.append((model, freeze_generation()))
        return HASH_PHI_PREFIX(model, split)

    monkeypatch.setattr(segmented, "hash_phi_prefix", counting)
    return calls


def _fresh_chain(model):
    """ϕ's chain and frontier recomputed from scratch, bypassing the memo."""
    segments = [segment for _, segment in model.segments()]
    frontier = next(
        (i for i, segment in enumerate(segments) if segment.has_trainable()),
        None,
    )
    return HASH_PHI_PREFIX(model, frontier or 0), frontier


def _assert_memo_fresh(model):
    chain, frontier = _fresh_chain(model)
    assert model.phi_prefix_chain() == chain
    assert model.trainable_frontier() == frontier
    assert model.frozen_split_index() == (frontier or 0)


def _phi_arrays(model):
    split = model.frozen_split_index()
    for _, segment in model.segments()[:split]:
        for _, param in segment.named_parameters():
            yield param.data
        for _, buf in segment.named_buffers():
            yield buf


# ---------------------------------------------------------------------------
# Read-only frozen arrays
# ---------------------------------------------------------------------------


def test_inplace_write_to_frozen_parameter_raises():
    model = _model()
    weight = model.mid.layers[0].weight
    before = weight.data.copy()
    with pytest.raises(ValueError):
        weight.data += 1.0
    with pytest.raises(ValueError):
        weight.data[0] = 0.0
    assert weight.data.tobytes() == before.tobytes()
    # θ stays writeable
    model.head.layers[1].weight.data += 0.0


def test_inplace_write_to_frozen_segment_buffer_raises():
    model = _model()
    norm = model.stem.layers[1]
    assert "running_mean" in norm._buffers
    with pytest.raises(ValueError):
        norm.running_mean += 1.0
    # a train-mode forward would update ϕ's running statistics in place
    norm.train()
    with pytest.raises(ValueError):
        norm(RNG(1).normal(size=(2, 4, 8, 8)))
    # buffers of the trainable segments stay writeable
    model.up.layers[1].running_mean[...] += 0.0


def test_unfreezing_makes_the_arrays_writeable_again():
    model = _model()
    model.apply_fine_tune_level("full")
    for array in (model.stem.layers[0].weight.data,
                  model.stem.layers[1].running_var):
        assert array.flags.writeable
        array += 0.0


def test_freezing_a_view_detaches_it_from_its_base():
    """A frozen parameter owns its bytes: writes through the array it was
    a view of (e.g. a fused plan's slab) cannot reach it."""
    slab = np.arange(6, dtype=np.float64)
    param = Parameter(slab[2:5])
    param.requires_grad = False
    slab[...] = -1.0
    assert param.data.tolist() == [2.0, 3.0, 4.0]
    assert not param.data.flags.writeable
    param.requires_grad = True
    param.data += 1.0
    assert param.data.tolist() == [3.0, 4.0, 5.0]


def test_load_state_dict_writes_frozen_arrays_and_restores_the_flag():
    model = _model()
    state = model.state_dict()
    state["mid.layer0.weight"] = state["mid.layer0.weight"] + 1.0
    generation = freeze_generation()
    model.load_state_dict(state)
    assert freeze_generation() != generation
    weight = model.mid.layers[0].weight.data
    assert weight.tobytes() == state["mid.layer0.weight"].tobytes()
    assert not weight.flags.writeable
    assert all(not array.flags.writeable for array in _phi_arrays(model))


def test_concurrent_bumps_are_never_lost():
    """Thread replicas re-freeze concurrently: every bump must land, or a
    memo could be served across a change it missed."""
    threads, bumps = 8, 2000
    start = freeze_generation()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [bump_freeze_generation() for _ in range(bumps)]
            )
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert freeze_generation() == start + threads * bumps


def test_theta_only_load_keeps_the_generation():
    model = _model()
    state = model.state_dict()
    generation = freeze_generation()
    model.load_state_dict(
        {key: state[key] + 1.0 for key in theta_keys(model)}, strict=False
    )
    assert freeze_generation() == generation


# ---------------------------------------------------------------------------
# Memo invalidation: each sanctioned change re-derives the memoized values
# ---------------------------------------------------------------------------


def _freeze_stem(model):
    model.apply_fine_tune_level("full")
    _ = model.phi_prefix_chain()
    model.stem.freeze()


def _unfreeze_low(model):
    model.low.unfreeze()


def _set_trainable(model):
    model.set_trainable(lambda name: not name.startswith(("stem", "low")))


def _fine_tune_level(model):
    model.apply_fine_tune_level("classifier")


def _adapt_to_task(model):
    adapt_to_task(model, 3, RNG(5))


def _load_state_dict(model):
    state = model.state_dict()
    state["stem.layer0.weight"] = state["stem.layer0.weight"] * 0.5
    model.load_state_dict(state)


def _workload_fraction(model):
    # unfreezes everything, then restores the flags: the memo must not
    # keep the all-trainable frontier
    _ = model.phi_prefix_chain()
    partial_workload_fraction(model, (3, 8, 8))


@pytest.mark.parametrize(
    "change",
    [
        _freeze_stem,
        _unfreeze_low,
        _set_trainable,
        _fine_tune_level,
        _adapt_to_task,
        _load_state_dict,
        _workload_fraction,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_memo_is_invalidated_by(change, hashes):
    model = _model()
    _assert_memo_fresh(model)
    generation = freeze_generation()
    change(model)
    assert freeze_generation() != generation
    _assert_memo_fresh(model)
    # re-hashed in the new generation, not served from the old one
    assert hashes[-1] == (model, freeze_generation())
    assert profiling.training_flops_per_sample(model, (3, 8, 8)) == (
        _fresh_training_flops(model)
    )
    # every array of the (possibly new) ϕ is read-only again
    assert all(not array.flags.writeable for array in _phi_arrays(model))


def _fresh_training_flops(model):
    _, frontier = _fresh_chain(model)
    per_segment = profiling.segment_forward_flops(model, (3, 8, 8))
    total = sum(per_segment.values())
    if frontier is None:
        return total
    backward = sum(list(per_segment.values())[frontier:])
    return int(total + profiling.BACKWARD_FORWARD_RATIO * backward)


def test_repeated_lookups_hash_once(hashes):
    model = _model()
    chain = model.phi_prefix_chain()
    for _ in range(5):
        assert model.phi_prefix_chain() == chain
        assert model.phi_fingerprint() == chain[-1]
        assert model.frozen_split_index() == 3
    assert len(hashes) == 1
    # a caller mutating the returned list cannot corrupt the memo
    model.phi_prefix_chain().clear()
    assert model.phi_prefix_chain() == chain


def test_attaching_a_module_or_parameter_invalidates(hashes):
    """Built (and frozen) before the memo is read, so only the attach
    itself can start the new generation."""
    model = _model()
    conv = Conv2d(3, 4, 3, RNG(9), padding=1, bias=False).freeze()
    weight = Parameter(RNG(10).normal(size=(4, 4, 3, 3)), requires_grad=False)
    before = model.phi_fingerprint()
    model.stem.layer0 = conv
    after_module = model.phi_fingerprint()
    assert after_module != before
    model.low.layers[0].weight = weight
    assert model.phi_fingerprint() not in (before, after_module)
    assert hashes[-1] == (model, freeze_generation())


def test_rebinding_frozen_data_seals_it_and_invalidates(hashes):
    model = _model()
    before = model.phi_fingerprint()
    weight = model.stem.layers[0].weight
    weight.data = weight.data + 1.0
    assert not weight.data.flags.writeable
    assert model.phi_fingerprint() != before
    assert len(hashes) == 2


# ---------------------------------------------------------------------------
# Copies: thread replicas (deepcopy) and process templates (pickle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["deepcopy", "pickle"],
)
def test_copies_stay_read_only_with_the_same_fingerprint(clone):
    model = _model()
    fingerprint = model.phi_fingerprint()
    replica = clone(model)
    # read-only straight away, before anything reads the replica's memo
    with pytest.raises(ValueError):
        replica.stem.layers[0].weight.data += 1.0
    with pytest.raises(ValueError):
        replica.stem.layers[1].running_mean += 1.0
    arrays = list(_phi_arrays(replica))
    assert arrays and all(not array.flags.writeable for array in arrays)
    assert replica.phi_fingerprint() == fingerprint
    assert replica.trainable_frontier() == model.trainable_frontier()
    assert all(
        p.requires_grad == q.requires_grad
        for p, q in zip(model.parameters(), replica.parameters())
    )
    # θ and the trainable segments' buffers stay writeable in the copy
    replica.head.layers[1].weight.data += 0.0
    replica.up.layers[1].running_mean[...] += 0.0
    # the replica is independent of the original
    replica.stem.unfreeze()
    replica.stem.layers[0].weight.data += 1.0
    assert model.phi_fingerprint() == fingerprint


def test_process_fedbuff_run_hashes_phi_once_per_generation(hashes):
    result = run_fedft_eds(
        FedFTEDSConfig(
            **dict(
                ENGINE_SMOKE, model="cnn", seed=1, mode="fedbuff",
                backend="process", max_workers=2, num_clients=6,
            )
        )
    )
    assert len(result.history.records) > len(hashes) >= 1
    keys = [(id(model), generation) for model, generation in hashes]
    assert len(set(keys)) == len(keys)
