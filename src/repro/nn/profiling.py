"""FLOPs accounting used by the federated timing model.

The paper measures client training *time*; we simulate it from exact FLOPs
counts (see DESIGN.md, substitutions). The key structural facts preserved:

- a forward pass traverses the whole model (frozen layers included);
- the backward pass only traverses the segments at or above the lowest
  trainable one, which is where partial fine-tuning saves compute;
- entropy/random data selection costs one forward pass over all local data.
"""

from __future__ import annotations

from repro.nn.module import Module
from repro.nn.segmented import SEGMENT_ORDER, SegmentedModel

#: Conventional backward/forward cost ratio for SGD training.
BACKWARD_FORWARD_RATIO = 2.0


def _segment_flops(segment: Module, in_shape: tuple) -> tuple[int, tuple]:
    """``segment.flops_per_sample(in_shape)``, computed once per shape.

    A segment's forward FLOPs depend only on its layer structure and the
    input shape, never on weights or on which parameters are frozen, so
    the walk is memoized on the segment module itself (its ``_flops_memo``
    maps ``in_shape`` to ``(flops, out_shape)``). Replacing a segment
    (``adapt_to_task`` swaps ``model.head``) therefore starts a fresh memo
    with the new module; nothing keyed on the model can go stale.
    """
    memo = vars(segment).setdefault("_flops_memo", {})
    hit = memo.get(in_shape)
    if hit is None:
        flops, out_shape = segment.flops_per_sample(in_shape)
        hit = memo[in_shape] = (flops, tuple(out_shape))
    return hit


def forward_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """Exact forward FLOPs for one sample through the whole model."""
    return sum(segment_forward_flops(model, in_shape).values())


def segment_forward_flops(
    model: SegmentedModel, in_shape: tuple
) -> dict[str, int]:
    """Per-segment forward FLOPs for one sample."""
    out: dict[str, int] = {}
    shape = tuple(in_shape)
    for name, segment in model.segments():
        out[name], shape = _segment_flops(segment, shape)
    return out


def training_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """FLOPs for one training sample: full forward + truncated backward.

    The backward pass costs ``BACKWARD_FORWARD_RATIO`` × the forward FLOPs of
    every segment from the lowest trainable one upward; segments below the
    frontier are never back-propagated through (``SegmentedModel.backward``).
    The frontier comes from the model's freeze-generation memo
    (:meth:`~repro.nn.segmented.SegmentedModel.trainable_frontier`), so
    freezing moves it without touching the memoized structural FLOPs.
    """
    per_segment = segment_forward_flops(model, in_shape)
    total_forward = sum(per_segment.values())
    frontier = model.trainable_frontier()
    if frontier is None:
        return total_forward
    backward = sum(
        per_segment[name]
        for i, name in enumerate(SEGMENT_ORDER)
        if i >= frontier
    )
    return int(total_forward + BACKWARD_FORWARD_RATIO * backward)


def selection_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """FLOPs to score one sample for data selection: a single forward pass."""
    return forward_flops_per_sample(model, in_shape)
