"""The benchmark's tracer (perfbench/tracer.py) wraps aansim functions by
module attribute and reads fields of their results.  Renaming or deleting a
wrapped name, or a field an observer reads, fails here instead of at
benchmark time."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SCENARIO_PATH = ROOT / "scenarios" / "lab_study.json"
MODULES = (
    "cli", "episode", "geometry", "metrics", "navigation", "orchestrator",
    "scenario", "seeding", "session", "usersim", "world",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_guided_episode(tracing, sim, scenario):
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(sim)):
        sim.episode.run_episode(scenario, "B", 0)
    return tracer


def _setup():
    tracing = _load_tracer()
    sim = SimpleNamespace(**{m: importlib.import_module(f"aansim.{m}") for m in MODULES})
    # Freshly loaded, so its costmap and leg memo are not built yet.
    return tracing, sim, sim.scenario.load_scenario(SCENARIO_PATH)


def test_tracer_wraps_a_guided_episode():
    tracing, sim, scenario = _setup()
    tracer = _traced_guided_episode(tracing, sim, scenario)
    totals = tracer.layer_totals()
    # The scenario builds its costmap through the traced module attribute.
    assert totals["navigation.build_costmap"]["calls"] >= 1
    assert totals["geometry.localize_target"]["calls"] >= 1
    assert totals["navigation.navigate_to"]["calls"] >= 1
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["navigation.navigate_to.arrived_ratio"] > 0.0


def test_tracer_sees_replayed_legs():
    tracing, sim, scenario = _setup()
    _traced_guided_episode(tracing, sim, scenario)
    tracer = _traced_guided_episode(tracing, sim, scenario)
    totals = tracer.layer_totals()
    assert totals["navigation.navigate_to"]["calls"] >= 1
    assert "navigation.dwa_step" not in totals
    assert tracing.layer_metrics(tracer, 0.0)["navigation.navigate_to.arrived_ratio"] == 1.0


def test_tracer_sees_memoized_frames():
    tracing, sim, scenario = _setup()
    first = _traced_guided_episode(tracing, sim, scenario)
    second = _traced_guided_episode(tracing, sim, scenario)
    assert first.layer_totals()["world.render_depth_ids"]["calls"] >= 1
    assert "world.render_depth_ids" not in second.layer_totals()

    def detections(tracer):
        return {key: n for key, n in tracer.counts.items() if key.startswith("detect.")}

    assert detections(second) == detections(first) != {}
    detect_calls = [t.layer_totals()["world.detect"]["calls"] for t in (first, second)]
    assert detect_calls[0] == detect_calls[1]
