"""Dirichlet/IID partitioning: coverage, disjointness, heterogeneity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    partition_statistics,
)
from repro.utils import make_rng


def make_labels(n=300, classes=6, seed=0):
    return np.random.default_rng(seed).integers(0, classes, size=n)


def assert_valid_partition(shards, n):
    """Shards must be disjoint and cover all indices exactly once."""
    merged = np.concatenate(shards)
    assert len(merged) == n
    assert np.array_equal(np.sort(merged), np.arange(n))


def test_iid_partition_covers_all():
    labels = make_labels()
    shards = iid_partition(labels, 7, 0)
    assert_valid_partition(shards, len(labels))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_iid_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        iid_partition(make_labels(5), 0, 0)
    with pytest.raises(ValueError):
        iid_partition(make_labels(3), 5, 0)


def test_dirichlet_partition_covers_all():
    labels = make_labels()
    shards = dirichlet_partition(labels, 10, alpha=0.5, rng=0)
    assert_valid_partition(shards, len(labels))
    assert all(len(s) >= 2 for s in shards)


def test_dirichlet_more_skewed_at_small_alpha():
    """Smaller alpha must yield fewer effective classes per client."""
    labels = make_labels(n=2000, classes=10)
    skewed = dirichlet_partition(labels, 10, alpha=0.05, rng=0)
    mild = dirichlet_partition(labels, 10, alpha=5.0, rng=0)
    s_stats = partition_statistics(labels, skewed, 10)
    m_stats = partition_statistics(labels, mild, 10)
    assert s_stats.mean_effective_classes < m_stats.mean_effective_classes


def test_dirichlet_deterministic_given_seed():
    labels = make_labels()
    a = dirichlet_partition(labels, 5, alpha=0.1, rng=3)
    b = dirichlet_partition(labels, 5, alpha=0.1, rng=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_dirichlet_extreme_alpha_rebalances():
    """Very small alpha still yields a valid min_size partition."""
    labels = make_labels(n=120, classes=4)
    shards = dirichlet_partition(labels, 12, alpha=0.01, rng=0, min_size=2)
    assert_valid_partition(shards, 120)
    assert all(len(s) >= 2 for s in shards)


def test_dirichlet_validation():
    labels = make_labels()
    with pytest.raises(ValueError):
        dirichlet_partition(labels, 5, alpha=0.0, rng=0)
    with pytest.raises(ValueError):
        dirichlet_partition(labels, 0, alpha=0.1, rng=0)
    with pytest.raises(ValueError):
        dirichlet_partition(make_labels(5), 5, alpha=0.1, rng=0, min_size=2)


def test_partition_statistics_counts():
    labels = np.array([0, 0, 1, 1, 2, 2])
    shards = [np.array([0, 2]), np.array([1, 3]), np.array([4, 5])]
    stats = partition_statistics(labels, shards, 3)
    assert np.array_equal(stats.sizes, [2, 2, 2])
    assert stats.class_counts[2, 2] == 2
    assert stats.class_counts[0, 0] == 1
    # client 2 holds one class -> effective classes 1; others hold two
    assert 1.0 < stats.mean_effective_classes < 2.0


@settings(deadline=None, max_examples=25)
@given(
    st.integers(2, 8),
    st.floats(0.05, 10.0),
    st.integers(0, 2**31 - 1),
)
def test_dirichlet_property_valid_partition(clients, alpha, seed):
    labels = make_labels(n=400, classes=5, seed=1)
    shards = dirichlet_partition(labels, clients, alpha=alpha, rng=seed)
    assert_valid_partition(shards, 400)
    assert all(len(s) >= 2 for s in shards)


def test_dirichlet_rejects_non_positive_max_tries():
    """No draw at all would leave nothing to rebalance: refuse up front."""
    labels = make_labels()
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_tries"):
            dirichlet_partition(labels, 5, alpha=0.1, rng=0, max_tries=bad)


# ---------------------------------------------------------------------------
# Oracle: the per-client ``np.split`` implementation the sized-from-cut-points
# partition replaced. Kept verbatim; the property test below pins the new one
# to it byte for byte, generator stream included.
# ---------------------------------------------------------------------------


def reference_dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator | int,
    min_size: int = 2,
    max_tries: int = 100,
) -> list[np.ndarray]:
    """Dirichlet non-IID split of sample indices by label.

    Redraws until every client holds at least ``min_size`` samples, which is
    the standard guard against degenerate shards at very small ``alpha``.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    labels = np.asarray(labels)
    if len(labels) < num_clients * min_size:
        raise ValueError("not enough samples to give every client min_size")
    rng = make_rng(rng)
    classes = np.unique(labels)
    result: list[np.ndarray] | None = None
    for _attempt in range(max_tries):
        shards: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for cls in classes:
            idx = np.where(labels == cls)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            # Cumulative proportions → split points into this class's indices.
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            for client, part in enumerate(np.split(idx, cuts)):
                shards[client].append(part)
        sizes = [sum(len(p) for p in parts) for parts in shards]
        result = [
            np.concatenate(parts) if parts else np.empty(0, np.int64)
            for parts in shards
        ]
        if min(sizes) >= min_size:
            return [np.sort(shard) for shard in result]
    # Extreme alpha can make min_size unreachable by redrawing (a class's
    # whole mass lands on one client); rebalance the last draw instead by
    # moving samples from the largest shards to the starved ones.
    assert result is not None
    pool = [list(shard) for shard in result]
    while True:
        sizes = np.array([len(shard) for shard in pool])
        needy = int(np.argmin(sizes))
        if sizes[needy] >= min_size:
            break
        donor = int(np.argmax(sizes))
        if sizes[donor] <= min_size:
            raise RuntimeError(
                "not enough samples to rebalance the partition to min_size"
            )
        take = rng.integers(0, len(pool[donor]))
        pool[needy].append(pool[donor].pop(int(take)))
    return [np.sort(np.asarray(shard, dtype=np.int64)) for shard in pool]


def _outcome(partition, labels, clients, alpha, seed, min_size, max_tries):
    """Shards (bytes + dtype) or the error, plus the generator's next draw."""
    rng = np.random.default_rng(seed)
    try:
        shards = partition(
            labels, clients, alpha, rng, min_size=min_size, max_tries=max_tries
        )
        result = [(s.dtype.str, s.tobytes()) for s in shards]
    except RuntimeError as exc:
        result = ("RuntimeError", str(exc))
    return result, rng.integers(0, 2**62)


#: the benchmark's shape: 512 clients at α=0.1 never reach min_size=2 in 100
#: draws, so the last draw goes through the rebalance loop
COHORT_512 = (make_labels(n=15_360, classes=10, seed=4), 512, 0.1, 0, 2, 100)


@st.composite
def partition_cases(draw):
    clients = draw(st.integers(1, 64))
    min_size = draw(st.integers(0, 3))
    classes = draw(st.integers(1, 8))
    n = draw(st.integers(clients * min_size, clients * min_size + 300))
    labels = make_labels(n=n, classes=classes, seed=draw(st.integers(0, 2**16)))
    # sparse, non-contiguous label values must not matter
    labels = labels * draw(st.integers(1, 5)) + draw(st.integers(0, 3))
    alpha = draw(st.floats(0.01, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    max_tries = draw(st.integers(1, 6))
    return labels, clients, alpha, seed, min_size, max_tries


@settings(deadline=None, max_examples=120)
@example(case=COHORT_512)
@example(case=(make_labels(n=120, classes=4), 12, 0.01, 0, 2, 100))
@example(case=(np.empty(0, np.int64), 3, 0.5, 1, 0, 2))
@given(case=partition_cases())
def test_dirichlet_matches_reference_oracle(case):
    """Sized-from-cut-points partition ≡ per-client split, byte for byte."""
    assert _outcome(dirichlet_partition, *case) == _outcome(
        reference_dirichlet_partition, *case
    )


def test_cohort_512_case_takes_the_rebalance_path():
    """The oracle's 512-client example really exercises the rebalance loop.

    Replaying just the 100 draws (shuffle + dirichlet per class) leaves the
    generator where a partition without rebalancing would; the real call
    must have drawn more (the donor picks).
    """
    labels, clients, alpha, seed, min_size, max_tries = COHORT_512
    called = np.random.default_rng(seed)
    dirichlet_partition(
        labels, clients, alpha, called, min_size=min_size, max_tries=max_tries
    )
    replay = np.random.default_rng(seed)
    counts = np.unique(labels, return_counts=True)[1]
    for _ in range(max_tries):
        for count in counts:
            replay.shuffle(np.arange(count))
            replay.dirichlet(np.full(clients, alpha))
    assert called.bit_generator.state != replay.bit_generator.state
