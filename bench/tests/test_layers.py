import pytest

from bench import harness, layers
from bench.workloads import MB, PaperBroadcast


def test_every_module_belongs_to_exactly_one_layer():
    modules = layers.package_modules()
    assert "sim/engine.py" in modules
    assert layers.map_problems(modules) == []


def test_map_problems_names_unmapped_and_doubly_mapped_modules(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "extra", ("core/peel.py",))
    problems = layers.map_problems(["sim/engine.py", "core/peel.py", "new/mod.py"])
    assert problems == [
        "core/peel.py: ['core', 'extra']",
        "new/mod.py: unmapped",
    ]


def test_every_entry_point_resolves():
    for targets in layers.ENTRY_POINTS.values():
        for target in targets:
            filename, _line, _name = layers.code_key(target)
            assert layers.bucket_of(filename) in layers.LAYERS


@pytest.fixture(scope="module")
def traced():
    wl = PaperBroadcast(num_jobs=2, num_gpus=16, message_bytes=1 * MB, hosts_per_tor=4)
    topo = wl.topology(1)
    inputs = wl.inputs(topo, 1)
    profile, wall = harness.traced_pass(wl, topo, inputs)
    return profile, wall


def test_traced_self_time_buckets_cover_the_profile(traced):
    profile, wall = traced
    assert profile["coverage"] >= 0.99
    assert profile["total_s"] <= wall
    assert profile["self_s"]["sim.engine"] > 0
    assert profile["calls"]["collectives.launch"] == 2
    assert profile["calls"]["core.peel.plan"] == 2


def test_coverage_drops_when_a_layer_loses_its_modules(monkeypatch, traced):
    profile, _ = traced
    engine_share = profile["self_s"]["sim.engine"] / profile["total_s"]
    assert engine_share > 0.01
    monkeypatch.setitem(layers.LAYERS, "sim.engine", ())
    wl = PaperBroadcast(num_jobs=2, num_gpus=16, message_bytes=1 * MB, hosts_per_tor=4)
    topo = wl.topology(1)
    profile, _ = harness.traced_pass(wl, topo, wl.inputs(topo, 1))
    assert profile["coverage"] < 0.99
