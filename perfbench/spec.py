"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-manifest`` regenerates it) and of the
per-layer wrapping table the traced run installs. It imports nothing from
``repro``, so the manifest can be written and validated without the program.
"""

from __future__ import annotations

RUN_SECONDS = 30

#: workload name -> why it is in the benchmark (its inputs come from
#: :func:`workload_inputs`).
#: Every workload is a closed loop in one process: one campaign at a time
#: with no concurrent callers; the only extra processes are the program's
#: own two workers in ``fedbuff-process-128``.
WORKLOADS = {
    "matrix-smoke": (
        "the full 16-experiment smoke matrix on a cold artifact store: the "
        "only workload that writes the store and trains centrally; ~70% is "
        "per-client head solves"
    ),
    "sync-cohort-512": (
        "sync FedFT-EDS with 512 ragged Diri(0.1) clients of ~30 rows on "
        "the serial backend: the scale the cohort solver exists for; no "
        "store, transport or checkpoints"
    ),
    "fedbuff-process-128": (
        "FedBuff K=8 on 2 process workers, 128 clients, 1280 events, pooled "
        "eval and async checkpoints on a warm store: the dispatch, "
        "transport, checkpoint and store-read layers"
    ),
}


def workload_inputs(name: str, seed: int) -> dict:
    """The program inputs of one workload, generated from ``seed`` alone.

    The program sees only what this returns (plus scratch directories the
    runner creates); the seed picks the campaign seed, which draws the
    synthetic world, the Dirichlet shards and every RNG stream.
    """
    campaign_seed = int(seed) % 100_000
    if name == "matrix-smoke":
        return {"kind": "matrix", "seed": campaign_seed}
    if name == "sync-cohort-512":
        return {
            "kind": "fedft",
            "config": {
                "seed": campaign_seed,
                "dataset": "cifar10",
                "model": "mlp",
                "num_clients": 512,
                "train_size": 15_360,
                "alpha": 0.1,
                "selection_fraction": 0.1,
                "local_epochs": 5,
                "rounds": 10,
                "backend": "serial",
            },
        }
    if name == "fedbuff-process-128":
        return {
            "kind": "fedft",
            "warm_store": True,
            "config": {
                "seed": campaign_seed,
                "dataset": "cifar10",
                "model": "mlp",
                "num_clients": 128,
                "mode": "fedbuff",
                "buffer_size": 8,
                "backend": "process",
                "max_workers": 2,
                "max_events": 1280,
                "eval_every": 4,
                "checkpoint_every": 32,
            },
        }
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")


#: end-to-end metrics of the untraced runs: (name, unit, better, bound).
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen. Ten runs with different seeds spread by 5-21% (interquartile
#: range over median) on the 2-core reference host: the seed redraws the
#: ragged Diri(0.1) shards, which moves accuracy, memory peaks and work per
#: run, and the host's speed drifts over minutes (the same sync inputs ran
#: 5.5 s and 8.7 s forty minutes apart) while repetitions within one run
#: agree to 2-4%. Only ``success_frac`` (always 1 when nothing fails) gets
#: a tight bound.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("client_updates_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("success_frac", "frac", "higher", 0.01),
    ("final_accuracy", "frac", "higher", 0.25),
)

#: layer -> (wrapped public functions, extra metrics, what it should move).
#: A target is ``module:Qualname``; a method target also wraps every
#: imported subclass that overrides it. ``module:*.result`` wraps the
#: ``result`` method of every class in the module that defines one (the
#: handles the backends return).
LAYERS = {
    "import": ((), (), "setup_s on every workload"),
    "data": (
        (
            "repro.data.synthetic:make_vision_world",
            "repro.data.synthetic:make_small_imagenet",
            "repro.data.synthetic:make_cifar10",
            "repro.data.synthetic:make_cifar100",
            "repro.data.synthetic:make_speech_commands",
            "repro.data.partition:dirichlet_partition",
        ),
        (),
        "setup_s on sync-cohort-512",
    ),
    "pretrain": (
        (
            "repro.pretrain.pretrainer:pretrain_model",
            "repro.pretrain.centralized:train_centralized",
        ),
        (),
        "setup_s on sync-cohort-512 (~0 on fedbuff-process-128: warm store)",
    ),
    "store": (
        (
            "repro.store:ArtifactStore.get",
            "repro.store:ArtifactStore.put",
            "repro.store:ArtifactStore.get_or_build",
            "repro.store:ArtifactStore.spill",
        ),
        (("hit_ratio", "frac", "higher"), ("bytes_written", "B", "lower")),
        "wall_s on matrix-smoke (writes); setup_s on fedbuff-process-128 "
        "(reads)",
    ),
    "fl.features": (
        ("repro.fl.features:FeatureRuntime.features_for",),
        (("builds", "count", "lower"), ("hit_ratio", "frac", "higher")),
        "client_updates_per_s on sync-cohort-512 (phi(x) is built in round 1)",
    ),
    "fl.selection": (
        ("repro.fl.selection:DataSelector.select",),
        (),
        "wall_s on matrix-smoke",
    ),
    "fl.client": (
        ("repro.fl.client:Client.run_round",),
        (("fused_solves", "count", "higher"), ("graph_solves", "count", "lower")),
        "wall_s on matrix-smoke",
    ),
    "fl.fastpath": (
        ("repro.fl.fastpath:run_cohort", "repro.fl.fastpath:solve_cohort"),
        (("cohort_lane_ratio", "frac", "higher"), ("plans_built", "count", "lower")),
        "client_updates_per_s on sync-cohort-512 (~0 on matrix-smoke)",
    ),
    "nn.segmented": (
        (
            "repro.nn.segmented:SegmentedModel.phi_prefix_chain",
            "repro.nn.segmented:SegmentedModel.phi_fingerprint",
        ),
        (),
        "client_updates_per_s on fedbuff-process-128",
    ),
    "engine.backends": (
        (
            "repro.engine.backends:ExecutionBackend.submit",
            "repro.engine.backends:ExecutionBackend.submit_many",
            "repro.engine.backends:ExecutionBackend.map_round",
            "repro.engine.backends:ProcessPoolBackend.evaluate_pooled",
            "repro.engine.backends:*.result",
        ),
        (
            ("wait_s", "s", "lower"),
            ("jobs", "count", "lower"),
            ("job_payload_bytes", "B", "lower"),
            ("shm_publishes", "count", "lower"),
            ("retries", "count", "lower"),
        ),
        "client_updates_per_s on fedbuff-process-128 (~0 on serial)",
    ),
    "engine.aggregators": (
        (
            "repro.fl.server:Server.aggregate",
            "repro.engine.aggregators:AsyncAggregator.apply",
            "repro.engine.aggregators:AsyncAggregator.flush",
        ),
        (),
        "client_updates_per_s on sync-cohort-512 (512-lane slab)",
    ),
    "fl.server.evaluate": (
        (
            "repro.fl.server:Server.evaluate",
            "repro.engine.backends:PooledEvaluator.evaluate",
            "repro.engine.backends:LazyPooledEvaluator.evaluate",
        ),
        (),
        "wall_s on fedbuff-process-128 and matrix-smoke",
    ),
    "fl.checkpoint": (
        (
            "repro.fl.checkpoint:save_checkpoint",
            "repro.fl.checkpoint:save_async_checkpoint",
        ),
        (("saves", "count", "lower"), ("payload_bytes", "B", "lower")),
        "wall_s on fedbuff-process-128 (0 elsewhere)",
    ),
    "loop": (
        (
            "repro.fl.rounds:run_federated_training",
            "repro.engine.runner:run_async_federated_training",
        ),
        (),
        "every end-to-end metric on every workload",
    ),
}

LOOP_TARGETS = LAYERS["loop"][0]

RUN_TOTALS = (
    ("coverage", "frac", "higher"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every traced-run metric as (name, unit, better), in report order."""
    out = []
    for layer, (_, extras, _) in LAYERS.items():
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
        out.extend((f"{layer}.{name}", unit, better) for name, unit, better in extras)
    out.extend(RUN_TOTALS)
    return out


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
