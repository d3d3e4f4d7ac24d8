"""The benchmark's tracer (perfbench/tracer.py) wraps aansim functions by
module attribute and reads fields of their results.  Renaming or deleting a
wrapped name, or a field an observer reads, fails here instead of at
benchmark time."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = (
    "cli", "episode", "geometry", "metrics", "navigation", "orchestrator",
    "scenario", "seeding", "session", "usersim", "world",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_guided_episode(lab_scenario):
    tracing = _load_tracer()
    sim = SimpleNamespace(**{m: importlib.import_module(f"aansim.{m}") for m in MODULES})
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(sim)):
        sim.episode.run_episode(lab_scenario, "B", 0)
    totals = tracer.layer_totals()
    assert totals["geometry.localize_target"]["calls"] >= 1
    assert totals["navigation.navigate_to"]["calls"] >= 1
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["navigation.navigate_to.arrived_ratio"] > 0.0
