"""Self-tests of the benchmark's helpers (no full workload runs).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

from perfbench import child, run, spec, wrap


@pytest.fixture
def fixture_package(monkeypatch):
    """A throwaway package: ``lib`` defines the functions, ``user`` copies one
    with ``from lib import inner`` and keeps it in a registry dict."""
    lib = types.ModuleType("pbfixture.lib")
    user = types.ModuleType("pbfixture.user")
    package = types.ModuleType("pbfixture")
    exec(
        "now = [0.0]\n"
        "def tick(dt):\n"
        "    now[0] += dt\n"
        "def inner():\n"
        "    tick(2.0)\n"
        "def outer():\n"
        "    tick(1.0)\n"
        "    inner()\n"
        "    inner()\n"
        "    tick(3.0)\n"
        "class Base:\n"
        "    def step(self):\n"
        "        tick(1.0)\n"
        "class Child(Base):\n"
        "    def step(self):\n"
        "        tick(0.5)\n"
        "        super().step()\n",
        lib.__dict__,
    )
    user.inner = lib.inner
    user.REGISTRY = {"inner": lib.inner}
    for module in (package, lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(wrap, "clock", lambda: lib.now[0])
    return lib, user


def test_self_time_of_nested_wrapped_calls(fixture_package):
    lib, user = fixture_package
    patcher = wrap.Patcher()
    tracer = wrap.Tracer(patcher)
    tracer.wrap("pbfixture.lib:outer")
    tracer.wrap("pbfixture.lib:inner")
    labels = tracer.wrap("pbfixture.lib:Base.step")
    assert labels == ["pbfixture.lib:Base.step", "pbfixture.lib:Child.step"]

    lib.outer()
    user.inner()  # the copied binding is wrapped too
    user.REGISTRY["inner"]()  # and so is the registry entry
    lib.Child().step()

    # [calls, self, inclusive]: outer spans 1 + 2*2 + 3 = 8 s of which the
    # two inner calls own 4 s; Child.step owns 0.5 s of its 1.5 s.
    assert tracer.stats["pbfixture.lib:outer"] == [1, 4.0, 8.0]
    assert tracer.stats["pbfixture.lib:inner"] == [4, 8.0, 8.0]
    assert tracer.stats["pbfixture.lib:Child.step"] == [1, 0.5, 1.5]
    assert tracer.stats["pbfixture.lib:Base.step"] == [1, 1.0, 1.0]
    calls, self_s, _ = tracer.totals(list(tracer.stats))
    assert (calls, self_s) == (7, lib.now[0])  # self times tile the clock

    patcher.restore()
    assert patcher.leftovers("pbfixture") == []
    assert user.REGISTRY["inner"] is lib.inner is user.inner


def test_traced_run_restores_every_original(tmp_path):
    import repro.core  # noqa: F401 - bindings must exist before the snapshot

    def functions():
        out = {}
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if callable(value):
                        out[(name, key)] = value
                    if isinstance(value, type):
                        for attr, member in vars(value).items():
                            out[(name, key, attr)] = member
        return out

    before = functions()
    inputs = {
        "kind": "fedft",
        "src": os.path.join(run.ROOT, "src"),
        "config": dict(
            seed=0, rounds=2, num_clients=3, train_size=120, test_size=60,
            pretrain_epochs=1, local_epochs=1, image_size=8,
        ),
    }
    inputs_path = tmp_path / "inputs.json"
    result_path = tmp_path / "result.json"
    inputs_path.write_text(json.dumps(inputs))
    assert child.main([str(inputs_path), str(result_path), "1"]) == 0
    after = functions()

    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    layers = json.loads(result_path.read_text())["layers"]
    assert layers["loop.calls"] == 1
    assert layers["fl.client.calls"] == 6  # 3 clients x 2 rounds
    assert set(layers) == {
        name for name, _, _ in spec.per_layer_metrics()
    } - {name for name, _, _ in spec.RUN_TOTALS}


class _Record:
    def __init__(self, index, accuracy):
        self.round_index = index
        self.test_accuracy = accuracy


def _rep(history, state):
    return {"digest": child.run_digest(history, state)}


def test_digest_check_fails_on_a_perturbed_result():
    history = types.SimpleNamespace(records=[_Record(0, 0.5), _Record(1, 0.625)])
    state = {"head.weight": np.linspace(-1.0, 1.0, 12).reshape(3, 4)}
    reps = [_rep(history, state) for _ in range(3)]
    assert run.check_digests(reps, {"serial-backend run": reps[0]})

    nudged = {"head.weight": state["head.weight"].copy()}
    nudged["head.weight"][1, 2] = np.nextafter(nudged["head.weight"][1, 2], 2.0)
    with pytest.raises(run.BenchmarkError, match="repetition 3"):
        run.check_digests(reps[:2] + [_rep(history, nudged)], {})
    relabelled = types.SimpleNamespace(records=[_Record(0, 0.5), _Record(1, 0.6)])
    with pytest.raises(run.BenchmarkError, match="serial-backend run"):
        run.check_digests(reps, {"serial-backend run": _rep(relabelled, state)})


def test_manifest_matches_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.manifest()
