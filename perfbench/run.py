"""The repository's benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Each repetition runs in a fresh interpreter (``perfbench/child.py``), so
import cost counts as it does for a CLI user. Repetitions repeat until
``--seconds`` of measurement are spent (at least three). Every repetition's
result digest must agree, and ``fedbuff-process-128`` must also agree with
the serial backend on the same inputs; any mismatch or failed repetition
exits non-zero without a result line. With ``--trace 1`` untraced and traced
repetitions alternate: the traced ones give the per-layer table, the pairs
give the tracing overhead, and none of it feeds the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402

CHILD = os.path.join(ROOT, "perfbench", "child.py")
SRC = os.path.join(ROOT, "src")
#: per-repetition limit; a whole run must end within three minutes
REP_TIMEOUT_S = 100.0
MIN_REPS = 3


class BenchmarkError(RuntimeError):
    """A repetition failed or results disagree: no result may be printed."""


def machine_fingerprint() -> dict:
    """Where the numbers come from, so that comparisons stay same-host."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass  # older numpy: no machine-readable build configuration
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class Runner:
    """Spawns repetitions of one workload inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: str):
        self.inputs = spec.workload_inputs(workload, seed)
        self.inputs["src"] = SRC
        self.work = work
        self.count = 0
        if self.inputs.get("warm_store"):
            self.inputs["cache_dir"] = os.path.join(work, "store")

    def rep(self, traced: bool = False, **overrides) -> dict:
        """One repetition in a fresh interpreter; its result record."""
        self.count += 1
        rep_dir = os.path.join(self.work, f"rep{self.count}")
        os.makedirs(rep_dir)
        inputs = dict(self.inputs, **overrides)
        inputs["checkpoint_dir"] = os.path.join(rep_dir, "checkpoint")
        if inputs["kind"] == "matrix":
            inputs["cache_dir"] = os.path.join(rep_dir, "store")
        inputs_path = os.path.join(rep_dir, "inputs.json")
        result_path = os.path.join(rep_dir, "result.json")
        with open(inputs_path, "w") as handle:
            json.dump(inputs, handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_CACHE", None)
        command = [sys.executable, CHILD, inputs_path, result_path, str(int(traced))]
        with open(os.path.join(rep_dir, "stderr.txt"), "w+") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
            try:
                code = proc.wait(timeout=REP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(proc)
            err.seek(0)
            tail = err.read()[-2000:]
        if code != 0:
            raise BenchmarkError(
                f"repetition {self.count} "
                + ("timed out" if code is None else f"exited with {code}")
                + f":\n{tail}"
            )
        with open(result_path) as handle:
            result = json.load(handle)
        result["wall_s"] = result["t_done"] - t_spawn
        result["setup_s"] = result["t_first_loop"] - t_spawn
        result["traced"] = traced
        shutil.rmtree(rep_dir, ignore_errors=True)
        return result


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the repetition left behind and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def run_reps(runner: Runner, seconds: float, traced: bool) -> list[dict]:
    """Repetitions until ``seconds`` are spent: plain, or untraced/traced pairs."""
    pattern = (False, True) if traced else (False,)
    minimum = 2 * len(pattern) if traced else MIN_REPS
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        for flag in pattern:
            reps.append(runner.rep(traced=flag))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= minimum and elapsed + per_rep * len(pattern) > seconds:
            return reps


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has >=10 samples beyond it"
    ordered = sorted(values)
    k = n - 10
    return f"n={n}; p{100 * k / n:.0f}={ordered[k - 1]:.4f}"


def end_to_end(reps: list[dict], failed: int, attempted: int) -> dict:
    """End-to-end metrics: medians over the repetitions."""
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "client_updates_per_s": [r["updates"] / r["loop_s"] for r in reps],
    }
    for name, values in samples.items():
        print(f"{name} samples: {percentile_note(values)}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = statistics.median(r["rss_kb"] / 1024 for r in reps)
    values["success_frac"] = 1.0 - failed / attempted
    values["final_accuracy"] = statistics.median(
        statistics.fmean(r["accuracies"]) for r in reps
    )
    return values


def per_layer(reps: list[dict]) -> dict:
    """Per-layer metrics (medians over traced repetitions) with run totals."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    wall = statistics.median(r["wall_s"] for r in traced)
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["coverage"] = self_total / wall
    values["unattributed_s"] = wall - self_total
    values["trace_overhead_frac"] = (
        wall / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    for layer, (_, _, moves) in spec.LAYERS.items():
        print(f"layer {layer} should move: {moves}")
    return values


def check_digests(reps: list[dict], references: dict[str, dict]) -> str:
    """Every repetition and reference run must produce the same digest."""
    digest = reps[0]["digest"]
    for index, rep in enumerate(reps, 1):
        if rep["digest"] != digest:
            raise BenchmarkError(
                f"repetition {index} digest {rep['digest'][:16]} != "
                f"{digest[:16]} of repetition 1"
            )
    for name, rep in references.items():
        if rep["digest"] != digest:
            raise BenchmarkError(
                f"{name} digest {rep['digest'][:16]} != {digest[:16]} of the "
                "timed repetitions"
            )
    return digest


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    print("machine: " + json.dumps(machine_fingerprint(), sort_keys=True))
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(workload, seed, work)
        references = {}
        if runner.inputs.get("warm_store"):
            # Untimed: fill the store the timed repetitions read, then run
            # the same inputs on the serial backend for the bitwise check.
            references["cold-store run"] = runner.rep()
            references["serial-backend run"] = runner.rep(
                backend="serial", cache_dir=os.path.join(work, "serial-store")
            )
        reps = run_reps(runner, seconds, traced)
        digest = check_digests(reps, references)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(f"workload: {workload} seed={seed} reps={len(reps)} digest={digest[:16]}")
    failed = sum(r["failed_jobs"] for r in reps)
    attempted = sum(r["updates"] for r in reps) + failed
    if traced:
        values = per_layer(reps)
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
    else:
        values = end_to_end(reps, failed, attempted)
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="regenerate BENCHMARK.json from perfbench/spec.py and exit",
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
