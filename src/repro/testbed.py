"""Shared smoke-scale builders used by both ``tests/`` and ``benchmarks/``.

The unit tests and the pytest benchmarks used to define their own tiny
worlds, federations and engine configs; when one drifted (a different
shard size, client count or epoch budget) the benchmarks silently stopped
covering the configuration the tests certify. Everything size-shaped that
both suites need lives here instead, so there is exactly one definition of
"the smoke federation".
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.experiments.common import ExperimentHarness
from repro.fl.client import Client
from repro.fl.selection import RandomSelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.nn.mlp import MLP

#: The engine smoke configuration shared by the determinism and async
#: engine tests — keyword arguments for
#: :class:`~repro.core.fedft_eds.FedFTEDSConfig`.
ENGINE_SMOKE = dict(
    rounds=2,
    num_clients=3,
    train_size=120,
    test_size=60,
    pretrain_epochs=1,
    local_epochs=1,
    image_size=8,
)

#: A 3-round, 64-client sync FedFT-EDS campaign on ragged Diri(0.1)
#: shards that groups into cohorts: the 512-client benchmark's shape at
#: tier-1 scale, for tests that count per-client work on the round path.
COHORT_SYNC_SMOKE = dict(
    rounds=3,
    num_clients=64,
    train_size=1920,
    test_size=200,
    pretrain_epochs=1,
    image_size=8,
    backend="serial",
)


def smoke_harness(seed: int = 0, **kwargs) -> ExperimentHarness:
    """The experiment harness both CI tests and benchmarks drive."""
    return ExperimentHarness("smoke", seed=seed, **kwargs)


def tiny_federation(
    seed: int = 0,
    num_clients: int = 3,
    samples: int = 90,
    num_classes: int = 3,
    lr: float = 0.05,
    epochs: int = 1,
) -> tuple[Server, list[Client]]:
    """A seconds-scale MLP federation over random data (checkpoint tests).

    Fully deterministic in ``seed``: rebuilding with the same arguments
    yields clients with identical shards and RNG streams — the property
    the async resume tests rely on when they reconstruct the federation
    "after a crash".
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, 3, 2, 2))
    y = rng.integers(0, num_classes, size=samples)
    train = ArrayDataset(x, y)
    model = MLP(12, (8, 8, 8), num_classes, rng)
    shards = iid_partition(y, num_clients, rng)
    clients = [
        Client(
            client_id=i,
            dataset=train.subset(shard),
            selector=RandomSelector(),
            solver=LocalSolver(lr=lr, batch_size=8),
            selection_fraction=0.5,
            epochs=epochs,
            rng=np.random.default_rng(seed + 5 + i),
        )
        for i, shard in enumerate(shards)
    ]
    server = Server(model, ArrayDataset(x[:30], y[:30]))
    return server, clients
