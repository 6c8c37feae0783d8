"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py INPUTS.json RESULT.json TRACE

``INPUTS.json`` holds the workload's program inputs (see
:func:`perfbench.spec.workload_inputs`) plus scratch directories;
``RESULT.json`` receives timestamps on the host-wide monotonic clock, the
result digest, counters and, with ``TRACE`` = 1, the per-layer table. The
program is imported first (that is the ``import`` layer), then the wrappers
go in, the workload runs, and every wrapper comes out again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import spec  # noqa: E402
from perfbench.wrap import Patcher, Tracer  # noqa: E402


# -- result digests -----------------------------------------------------


def run_digest(history, global_state: dict) -> str:
    """Digest of one federated run: every history record and the final θ
    (the exact bytes of every array of the global state, key-sorted)."""
    import numpy as np

    hasher = hashlib.sha256()
    for record in history.records:
        hasher.update(repr(tuple(vars(record).values())).encode())
    for key in sorted(global_state):
        value = np.ascontiguousarray(global_state[key])
        hasher.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        hasher.update(value.tobytes())
    return hasher.hexdigest()


def report_digest(reports: dict) -> str:
    """Digest of the experiment matrix: every report's table and data."""

    def plain(value):
        return value.tolist() if hasattr(value, "tolist") else repr(value)

    hasher = hashlib.sha256()
    for experiment_id in sorted(reports):
        report = reports[experiment_id]
        hasher.update(f"{experiment_id}\n{report.table}\n".encode())
        hasher.update(json.dumps(report.data, sort_keys=True, default=plain).encode())
    return hasher.hexdigest()


# -- always-on probe ------------------------------------------------------


class Probe:
    """The few hooks every repetition needs, traced or not.

    Round-loop entry and exit give ``setup_s`` and the in-loop time behind
    ``client_updates_per_s``; the process backend's shutdown is the last
    moment its workers' peak resident memory can be read.
    """

    def __init__(self, patcher: Patcher):
        self.first_loop = None
        self.loop_s = 0.0
        self.updates = 0
        self.accuracies: list[float] = []
        self.worker_hwm_kb: dict[int, int] = {}
        self._depth = 0
        for target in spec.LOOP_TARGETS:
            patcher.patch(target, self._loop)
        patcher.patch(
            "repro.engine.backends:ProcessPoolBackend.shutdown", self._shutdown
        )

    def _loop(self, fn, label):
        probe = self

        @functools.wraps(fn)
        def loop(*args, **kwargs):
            if probe._depth:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            if probe.first_loop is None:
                probe.first_loop = start
            probe._depth += 1
            try:
                history = fn(*args, **kwargs)
            finally:
                probe._depth -= 1
                probe.loop_s += time.perf_counter() - start
            probe.updates += sum(
                len(r.participants) if hasattr(r, "participants")
                else int(r.kind != "drop")
                for r in history.records
            )
            probe.accuracies.append(float(history.final_accuracy))
            return history

        return loop

    def _shutdown(self, fn, label):
        probe = self

        @functools.wraps(fn)
        def shutdown(backend, *args, **kwargs):
            executor = getattr(backend, "_executor", None)
            for pid in getattr(executor, "_processes", None) or ():
                try:
                    with open(f"/proc/{pid}/status") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                probe.worker_hwm_kb[pid] = int(line.split()[1])
                except OSError:
                    pass  # the worker already exited
            return fn(backend, *args, **kwargs)

        return shutdown


# -- traced-run counters ------------------------------------------------


class InstanceStats:
    """Collects the ``stats`` counter groups of runtime objects as built."""

    CLASSES = (
        "repro.fl.features:FeatureRuntime.__init__",
        "repro.engine.campaign:CampaignSegmentPool.__init__",
        "repro.engine.backends:ProcessPoolBackend.__init__",
    )

    def __init__(self, patcher: Patcher):
        self.groups: dict[str, list] = {}
        for target in self.CLASSES:
            groups = self.groups.setdefault(target.split(":")[1].split(".")[0], [])
            patcher.patch(target, lambda fn, label, g=groups: self._collect(fn, g))

    def _collect(self, fn, groups: list):
        @functools.wraps(fn)
        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            # a subclass __init__ chaining to a wrapped base reports once
            if not any(group is obj.stats for group in groups):
                groups.append(obj.stats)

        return init

    def total(self, cls: str, key: str) -> float:
        return sum(group.get(key, 0) for group in self.groups.get(cls, ()))


def layer_metrics(tracer: Tracer, labels: dict, counters: dict,
                  instances: InstanceStats, import_s: float,
                  updates: int) -> dict:
    """The per-layer table of one traced repetition (run totals excluded)."""

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, label_list in labels.items():
        calls, self_s, _ = tracer.totals(label_list)
        if layer == "import":
            calls, self_s = 1, import_s
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = calls
    c = counters
    out["store.hit_ratio"] = ratio(
        c.get("store.hits", 0), c.get("store.hits", 0) + c.get("store.misses", 0)
    )
    out["store.bytes_written"] = c.get("store.bytes", 0)
    builds = instances.total("FeatureRuntime", "builds")
    hits = instances.total("FeatureRuntime", "hits")
    derived = instances.total("FeatureRuntime", "derived")
    out["fl.features.builds"] = builds
    out["fl.features.hit_ratio"] = ratio(hits, hits + builds + derived)
    out["fl.client.fused_solves"] = c.get("solver.fused.fused_solves", 0)
    out["fl.client.graph_solves"] = c.get("solver.fused.graph_solves", 0)
    out["fl.fastpath.cohort_lane_ratio"] = ratio(
        c.get("solver.cohort.cohort_clients", 0), updates
    )
    out["fl.fastpath.plans_built"] = c.get("solver.cohort.plans_built", 0) + c.get(
        "solver.fused.plans_built", 0
    )
    out["engine.backends.wait_s"] = tracer.totals(
        ["repro.engine.backends:ExecutionBackend.result"]
    )[2]
    out["engine.backends.jobs"] = instances.total("ProcessPoolBackend", "jobs")
    out["engine.backends.job_payload_bytes"] = instances.total(
        "ProcessPoolBackend", "job_payload_bytes"
    )
    out["engine.backends.shm_publishes"] = (
        instances.total("ProcessPoolBackend", "state_publishes")
        + instances.total("ProcessPoolBackend", "template_publishes")
        + instances.total("CampaignSegmentPool", "publishes")
    )
    out["engine.backends.retries"] = c.get("faults.retries", 0)
    out["fl.checkpoint.saves"] = c.get("checkpoint.saves", 0)
    out["fl.checkpoint.payload_bytes"] = c.get("checkpoint.payload_bytes", 0)
    return out


# -- workloads ------------------------------------------------------------


def run_matrix(inputs: dict, patcher: Patcher) -> dict:
    from repro.experiments import run_all

    captured = {}

    def capture(fn, label):
        @functools.wraps(fn)
        def run_experiments(*args, **kwargs):
            captured["reports"] = fn(*args, **kwargs)
            return captured["reports"]

        return run_experiments

    patcher.patch("repro.experiments.run_all:run_experiments", capture)
    code = run_all.main(
        [
            "--scale", "smoke", "--seed", str(inputs["seed"]),
            "--no-telemetry", "--cache-dir", inputs["cache_dir"],
        ]
    )
    if code != 0:
        raise RuntimeError(f"repro-experiments exited with {code}")
    return captured["reports"]


def run_fedft(inputs: dict):
    from repro.core import FedFTEDSConfig, run_fedft_eds

    config = dict(inputs["config"])
    if config.get("mode", "sync") != "sync":
        config["checkpoint_path"] = inputs["checkpoint_dir"]
    if "cache_dir" in inputs:
        config["cache_dir"] = inputs["cache_dir"]
    if "backend" in inputs:
        config["backend"] = inputs["backend"]
    return run_fedft_eds(FedFTEDSConfig(**config))


def main(argv: list[str]) -> int:
    inputs_path, result_path, trace = argv
    traced = trace == "1"
    with open(inputs_path) as handle:
        inputs = json.load(handle)
    sys.path.insert(0, inputs["src"])

    t_import = time.perf_counter()
    if inputs["kind"] == "matrix":
        import repro.experiments.run_all  # noqa: F401
    else:
        import repro.core  # noqa: F401
    import_s = time.perf_counter() - t_import

    patcher = Patcher()
    tracer = instances = None
    labels = {}
    if traced:
        tracer = Tracer(patcher)
        instances = InstanceStats(patcher)
        for layer, (targets, _, _) in spec.LAYERS.items():
            labels[layer] = [label for t in targets for label in tracer.wrap(t)]
    probe = Probe(patcher)
    try:
        if inputs["kind"] == "matrix":
            outcome = run_matrix(inputs, patcher)
        else:
            outcome = run_fedft(inputs)
        t_done = time.perf_counter()
    finally:
        patcher.restore()
    leftovers = patcher.leftovers("repro")
    if leftovers:
        raise RuntimeError(f"wrappers left behind after the run: {leftovers}")

    from repro.obs.metrics import exported_groups

    counters = {}
    for group in exported_groups():
        counters.update(group.flat())
    if inputs["kind"] == "matrix":
        digest = report_digest(outcome)
    else:
        digest = run_digest(outcome.history, outcome.server.global_state)
    result = {
        "t_first_loop": probe.first_loop,
        "t_done": t_done,
        "import_s": import_s,
        "loop_s": probe.loop_s,
        "updates": probe.updates,
        "accuracies": probe.accuracies,
        # forked workers' peaks include the pages they share with the parent
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + sum(probe.worker_hwm_kb.values()),
        "failed_jobs": counters.get("faults.retries", 0)
        + counters.get("faults.degradations", 0),
        "digest": digest,
    }
    if traced:
        result["layers"] = layer_metrics(
            tracer, labels, counters, instances, import_s, probe.updates
        )
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
