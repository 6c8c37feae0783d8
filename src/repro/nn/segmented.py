"""Segmented models: the structural hook for partial fine-tuning.

The paper splits a model into a frozen feature extractor ϕ and a trainable
upper part θ, selecting the split point by named layer group ("fine-tune
from layer 3"). :class:`SegmentedModel` formalises that: a model is an
ordered chain of named segments ``stem → low → mid → up → head``, and
freezing/truncated-backward/activation-collection all key off segment names.

What depends on the freeze state — the trainable frontier, the frozen
split and ϕ's fingerprint chain — is memoized per model under the key
(:func:`~repro.nn.module.freeze_generation`, identity of the five segment
objects). The generation covers every flag change and every sanctioned
write into ϕ; segment identity covers a segment being swapped out
(``adapt_to_task`` replaces ``model.head``). While a memo is served, ϕ's
parameters are read-only (frozen) and so are its buffers (sealed when the
memo is refreshed), so no unsanctioned write can make it stale.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.nn.module import Module, freeze_generation, seal

#: Segment order shared by every model in this project.
SEGMENT_ORDER = ("stem", "low", "mid", "up", "head")

#: Paper fine-tuning levels → the lowest segment that remains trainable.
#: "full" trains everything; "large" freezes stem+low; "moderate" (the paper
#: default, "fine-tune from layer 3") freezes stem+low+mid; "classifier"
#: trains only the head.
FINE_TUNE_LEVELS = {
    "full": "stem",
    "large": "mid",
    "moderate": "up",
    "classifier": "head",
}


class SegmentedModel(Module):
    """A model made of the ordered segments ``stem, low, mid, up, head``.

    Subclasses assign the five segments as attributes (each a
    :class:`Module`); this base class provides forward/backward with
    backward truncation below the trainable frontier, activation collection
    for CKA, and level-based freezing.
    """

    def segments(self) -> list[tuple[str, Module]]:
        return [(name, getattr(self, name)) for name in SEGMENT_ORDER]

    # -- freeze-state memo ----------------------------------------------------
    def _freeze_memo(self) -> list:
        """``[key, frontier, chain]`` for the current freeze state.

        ``frontier`` is the index of the lowest segment with a trainable
        parameter (None when nothing trains); ``chain`` is ϕ's fingerprint
        chain, hashed on first request. A refresh seals the buffers of ϕ's
        segments and unseals the rest's (module docstring).
        """
        segments = tuple(getattr(self, name) for name in SEGMENT_ORDER)
        key = (freeze_generation(), segments)
        memo = self.__dict__.get("_freeze_state")
        if memo is not None and memo[0] == key:
            return memo
        frontier = next(
            (i for i, segment in enumerate(segments) if segment.has_trainable()),
            None,
        )
        for i, segment in enumerate(segments):
            _seal_buffers(segment, i < (frontier or 0))
        memo = [key, frontier, None]
        object.__setattr__(self, "_freeze_state", memo)
        return memo

    def _freeze_changed(self) -> None:
        self._freeze_memo()

    def __getstate__(self) -> dict:
        # Generations are per process: a memo must not travel.
        state = dict(self.__dict__)
        state.pop("_freeze_state", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickled and deep-copied buffers come back writeable: re-seal ϕ's.
        self.__dict__.update(state)
        self._freeze_memo()

    def trainable_frontier(self) -> int | None:
        """Index of the lowest segment with a trainable parameter, or None."""
        return self._freeze_memo()[1]

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for _, segment in self.segments():
            x = segment(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Backward pass that stops below the lowest trainable segment."""
        segs = self.segments()
        lowest = self.trainable_frontier()
        grad = grad_out
        for i in range(len(segs) - 1, -1, -1):
            if lowest is not None and i < lowest:
                return None
            grad = segs[i][1].backward(grad)
        return grad

    def forward_collect(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Run forward, returning ``(n, features)`` activations per segment.

        Spatial activations are globally average-pooled; these matrices feed
        the CKA similarity analysis of Figs. 2–4.
        """
        collected: dict[str, np.ndarray] = {}
        for name, segment in self.segments():
            x = segment(x)
            feat = x.mean(axis=(2, 3)) if x.ndim == 4 else x
            collected[name] = feat
        return collected

    # -- frozen-prefix (ϕ) structure ----------------------------------------
    def frozen_split_index(self) -> int:
        """Number of leading segments with no trainable parameters.

        Segments ``[0, split)`` form the frozen feature extractor ϕ whose
        eval-mode output is deterministic per sample; segments ``[split, …)``
        are the trainable part θ. Returns 0 when the first segment is
        already trainable — or when *nothing* is trainable, since a model
        with no θ has no meaningful ϕ/θ split to cache against.
        """
        return self._freeze_memo()[1] or 0

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Forward through the frozen prefix ϕ only (segments below θ)."""
        split = self.frozen_split_index()
        for _, segment in self.segments()[:split]:
            x = segment(x)
        return x

    def forward_head(self, features: np.ndarray) -> np.ndarray:
        """Forward from the trainable frontier given ϕ's output.

        Populates the forward caches of exactly the segments
        :meth:`backward` will visit, so a head-only forward/backward pair
        works without ever touching ϕ.
        """
        split = self.frozen_split_index()
        for _, segment in self.segments()[split:]:
            features = segment(features)
        return features

    def phi_fingerprint(self) -> str | None:
        """Content hash of the frozen prefix ϕ, or None without one.

        Keyed on the split structure (which segments are frozen) plus every
        frozen parameter's and buffer's name, dtype, shape and bytes — any
        change to ϕ (different pretrained weights, a different fine-tune
        level) yields a different fingerprint, which is what invalidates
        cached ϕ(x) feature arrays (see :mod:`repro.fl.features`).
        """
        chain = self.phi_prefix_chain()
        return chain[-1] if chain else None

    def phi_prefix_chain(self) -> list[str]:
        """Fingerprints of every frozen prefix ``segments[0:k)``, k = 1..split.

        The digest is chained segment by segment, so element ``k-1`` is the
        content hash a model whose frozen prefix were exactly the first
        ``k`` segments (with these same weights) would report as its
        :meth:`phi_fingerprint` — the last element *is* this model's
        fingerprint. Two models sharing pretrained weights but split at
        different depths therefore produce chains where one is a prefix of
        the other, which is what lets the feature cache derive the deeper
        split's ϕ(x) from the shallower split's cached arrays instead of
        re-running ϕ from the raw inputs (prefix-chain keying, see
        :mod:`repro.fl.features`). Empty without a frozen prefix.

        Hashed once per freeze generation (module docstring); later calls
        return a copy of the memoized chain.
        """
        memo = self._freeze_memo()
        if memo[2] is None:
            memo[2] = hash_phi_prefix(self, memo[1] or 0)
        return list(memo[2])

    # -- partial fine-tuning --------------------------------------------------
    def apply_fine_tune_level(self, level: str) -> "SegmentedModel":
        """Freeze every segment below ``level``'s trainable frontier."""
        if level not in FINE_TUNE_LEVELS:
            raise ValueError(
                f"unknown fine-tune level {level!r}; "
                f"expected one of {sorted(FINE_TUNE_LEVELS)}"
            )
        frontier = SEGMENT_ORDER.index(FINE_TUNE_LEVELS[level])
        for i, (_, segment) in enumerate(self.segments()):
            if i < frontier:
                segment.freeze()
            else:
                segment.unfreeze()
        self._freeze_changed()
        return self

    def set_partial_train_mode(self) -> "SegmentedModel":
        """Train mode for trainable segments, eval mode for frozen ones.

        Keeps frozen BatchNorm layers on their (pretrained) running
        statistics during local fine-tuning — the standard frozen-feature-
        extractor convention — while trainable segments keep batch
        statistics.
        """
        for _, segment in self.segments():
            if segment.has_trainable():
                segment.train()
            else:
                segment.eval()
        return self

    def trainable_segment_names(self) -> list[str]:
        return [name for name, seg in self.segments() if seg.has_trainable()]

    def trainable_parameter_names(self) -> list[str]:
        return [name for name, p in self.named_parameters() if p.requires_grad]

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        total = 0
        shape = in_shape
        for _, segment in self.segments():
            flops, shape = segment.flops_per_sample(shape)
            total += flops
        return total, shape


def hash_phi_prefix(model: SegmentedModel, split: int) -> list[str]:
    """The BLAKE2b-128 chain over ``model``'s first ``split`` segments.

    Element ``k-1`` digests the model type and, segment by segment up to
    ``k``, every parameter's and buffer's name, dtype, shape and bytes
    (see :meth:`SegmentedModel.phi_prefix_chain`, its only caller).
    """
    if split == 0:
        return []
    digest = hashlib.blake2b(digest_size=16)
    digest.update(type(model).__name__.encode())
    chain: list[str] = []
    for name, segment in model.segments()[:split]:
        digest.update(name.encode())
        for p_name, param in sorted(segment.named_parameters(name)):
            digest.update(p_name.encode())
            digest.update(str(param.data.dtype).encode())
            digest.update(repr(param.data.shape).encode())
            digest.update(np.ascontiguousarray(param.data).data)
        for b_name, buf in sorted(segment.named_buffers(name)):
            digest.update(b_name.encode())
            digest.update(str(buf.dtype).encode())
            digest.update(repr(buf.shape).encode())
            digest.update(np.ascontiguousarray(buf).data)
        chain.append(digest.copy().hexdigest())
    return chain


def _seal_buffers(segment: Module, sealed: bool) -> None:
    """Make every buffer under ``segment`` read-only, or writeable again."""
    for _, module in segment.named_modules():
        for name, buf in list(module._buffers.items()):
            if sealed and buf.flags.writeable:
                buf = module._buffers[name] = seal(buf)
                object.__setattr__(module, name, buf)
            elif not sealed and not buf.flags.writeable:
                buf.flags.writeable = True
