"""Work guards: exact counts of the work a cold study does, with no timing.

A fresh 10-seed lab_study batch renders each distinct frame and drives each
noise-free leg once.  A frame casts only the rectangle where a detectable
object can land, and the whole frame only once it fires: 75,394 rays over 24
renders, against 427,033 when each of the 21 distinct frames is cast whole
(with boxes that straddle the camera plane clipped, near 20,300 a frame).
The cost-free sample box lets 436 of the legs' 561 dynamic-window ticks
skip the cost gather.
"""

from pathlib import Path

from aansim import cli, navigation, world

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "lab_study.json"


def test_cold_study_casts_few_rays_and_gathers_costs_on_few_ticks(tmp_path, monkeypatch, capsys):
    counts = {"rays": 0, "frames": 0, "ticks": 0, "skips": 0}

    def counter(owner, name, key, size=lambda *args: 1):
        def counted(*args, real=getattr(owner, name)):
            out = real(*args)
            counts[key] += size(*args, out)
            return out

        monkeypatch.setattr(owner, name, counted)

    # Scenes built after the patch cast through it; the batch loads its own.
    counter(world, "_ray_box", "rays", lambda origin, dirs, *rest: dirs.shape[1])
    counter(world, "_ray_cylinder", "rays", lambda origin, dirs, *rest: dirs.shape[1])
    counter(world, "render_depth_ids", "frames")
    counter(navigation, "dwa_step", "ticks")
    counter(navigation.Costmap, "cost_free", "skips", lambda *args: int(args[-1]))
    rc = cli.main(["batch", "--scenario", str(SCENARIO_PATH), "--seeds", "10",
                   "--out", str(tmp_path / "batch")])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert counts["frames"] > 0 and counts["ticks"] > 0
    assert counts["rays"] / counts["frames"] <= 25_000
    assert counts["rays"] <= 100_000
    assert counts["ticks"] == 561
    assert counts["ticks"] - counts["skips"] <= 150  # the ticks that gather costs
