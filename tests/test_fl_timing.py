"""The analytic timing model and its interaction with partial training."""

import collections

import numpy as np
import pytest

from repro import nn
from repro.core import FedFTEDSConfig, run_fedft_eds
from repro.core.partial import adapt_to_task, prepare_partial_model
from repro.fl import fastpath
from repro.fl.timing import TimingModel
from repro.nn.module import Module
from repro.testbed import COHORT_SYNC_SMOKE

RNG = np.random.default_rng
SHAPE = (3, 4, 4)


def make_model(level="full"):
    model = nn.MLP(48, (16, 16, 16), 4, RNG(0))
    model.apply_fine_tune_level(level)
    return model


def test_round_seconds_positive_and_scales_with_data():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t2 = timing.round_seconds(model, SHAPE, 20, 100, epochs=1, selection_forward=False)
    assert 0 < t1 < t2
    assert t2 == pytest.approx(2 * t1)


def test_epochs_scale_training_time():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t5 = timing.round_seconds(model, SHAPE, 10, 100, epochs=5, selection_forward=False)
    assert t5 == pytest.approx(5 * t1)


def test_selection_overhead_added():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    base = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    with_sel = timing.round_seconds(
        model, SHAPE, 10, 100, epochs=1, selection_forward=True
    )
    assert with_sel > base


def test_partial_training_cheaper():
    """The workload reduction the paper claims from partial fine-tuning."""
    timing = TimingModel(flops_per_second=1e6)
    full = timing.round_seconds(
        make_model("full"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    partial = timing.round_seconds(
        make_model("classifier"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    assert partial < full


def test_fedft_eds_beats_fedavg_workload():
    """FedFT-EDS round (10% data + selection pass + partial model) must be
    much cheaper than a FedAvg round (all data, full model)."""
    timing = TimingModel(flops_per_second=1e6)
    n = 200
    fedavg = timing.round_seconds(
        make_model("full"), SHAPE, n, n, epochs=5, selection_forward=False
    )
    fedft_eds = timing.round_seconds(
        make_model("moderate"), SHAPE, n // 10, n, epochs=5, selection_forward=True
    )
    assert fedft_eds < fedavg / 3  # the paper's ≥3x efficiency headroom


def test_speed_multipliers():
    timing = TimingModel(flops_per_second=1e6, speed_multipliers={1: 4.0})
    model = make_model()
    fast = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=0
    )
    slow = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=1
    )
    assert slow == pytest.approx(4 * fast)


def test_validation():
    with pytest.raises(ValueError):
        TimingModel(flops_per_second=0)
    with pytest.raises(ValueError):
        TimingModel(speed_multipliers={0: -1.0})
    timing = TimingModel()
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, -1, 10, 1, False)
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, 1, 10, 0, False)


# ---------------------------------------------------------------------------
# The per-segment structural FLOPs memo must never go stale
# ---------------------------------------------------------------------------

def _seconds(model, shape=SHAPE):
    return TimingModel(flops_per_second=1e6).round_seconds(
        model, shape, 10, 100, epochs=2, selection_forward=True
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda classes: nn.MLP(48, (16, 16, 16), classes, RNG(0)),
        lambda classes: nn.SmallConvNet(classes, RNG(0), channels=(4, 8, 8)),
    ],
    ids=["mlp", "cnn"],
)
def test_round_seconds_after_adapt_to_task_matches_fresh_model(build):
    """A swapped head is priced as the new head, not the memoized old one."""
    model = prepare_partial_model(build(4), "moderate")
    before = _seconds(model)
    adapt_to_task(model, 9, RNG(1))
    prepare_partial_model(model, "moderate")
    fresh = prepare_partial_model(build(9), "moderate")
    assert _seconds(model) == _seconds(fresh)
    assert _seconds(model) != before


def test_round_seconds_follows_fine_tune_level_switches():
    """Re-freezing the same model moves the priced backward frontier."""
    model = make_model()
    seen = []
    for level in ("full", "moderate", "classifier", "full"):
        model.apply_fine_tune_level(level)
        seen.append(_seconds(model))
        assert seen[-1] == _seconds(make_model(level)), level
    assert seen[0] > seen[1] > seen[2] and seen[3] == seen[0]


def test_round_seconds_memo_is_keyed_by_input_shape():
    """One model priced at two input shapes keeps both prices exact."""
    model = prepare_partial_model(
        nn.SmallConvNet(5, RNG(0), channels=(4, 8, 8)), "moderate"
    )
    small, large = (3, 8, 8), (3, 12, 12)
    order = [small, large, small, large]
    prices = [_seconds(model, shape) for shape in order]
    for shape, price in zip(order, prices):
        fresh = prepare_partial_model(
            nn.SmallConvNet(5, RNG(0), channels=(4, 8, 8)), "moderate"
        )
        assert price == _seconds(fresh, shape)
    assert prices[0] < prices[1]


def _module_classes():
    stack, seen = [Module], []
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return [cls for cls in seen if "flops_per_sample" in vars(cls)]


def test_cohort_sync_run_walks_each_module_once_per_shape(monkeypatch):
    """192 priced client rounds cost one FLOPs walk per segment and shape.

    Every ``flops_per_sample`` implementation is wrapped; a module walked
    twice for the same input shape means some pricing path bypasses the
    per-segment memo. Walked modules stay referenced so ids are not reused.
    """
    calls = collections.Counter()
    walked = []
    for cls in _module_classes():
        original = vars(cls)["flops_per_sample"]

        def counting(self, in_shape, _original=original):
            calls[id(self), tuple(in_shape)] += 1
            walked.append(self)
            return _original(self, in_shape)

        monkeypatch.setattr(cls, "flops_per_sample", counting)
    before = fastpath.COHORT_STATS["cohort_solves"]
    run_fedft_eds(FedFTEDSConfig(seed=0, **COHORT_SYNC_SMOKE))
    assert fastpath.COHORT_STATS["cohort_solves"] > before
    assert calls, "the run priced no rounds"
    assert max(calls.values()) == 1
