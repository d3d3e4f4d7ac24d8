"""Work guards: exact counts of the work a cold study does, with no timing.

A fresh 10-seed lab_study batch renders each distinct frame and drives each
noise-free leg once.  A render casts and returns one pixel rectangle, the
one where a detectable object can land, and a fired frame localizes on its
box's slice of that rectangle's depth, so no render covers the whole frame:
the 21 rectangles hold 5,610 pixels, against 403,200 in 21 whole 160x120
frames, and take 13,567 rays, against 427,033 when each frame is cast whole
(with boxes that straddle the camera plane clipped, near 20,300 a frame).  Each of the 10
fires hands localization only its detection box's pixels, 1,302 in all,
against 192,000 when each passes a whole 160x120 frame.  The cost-free
sample box lets 431 of the legs' 561 dynamic-window ticks skip the cost
gather; none of them needs libm's scalar bearing, and the guard allows five.
"""

import math
from pathlib import Path

from aansim import cli, geometry, navigation, world

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "lab_study.json"


def test_cold_study_casts_few_rays_and_gathers_costs_on_few_ticks(tmp_path, monkeypatch, capsys):
    counts = {"rays": 0, "frames": 0, "whole frames": 0, "rectangle pixels": 0, "fires": 0,
              "box pixels": 0, "localized pixels": 0, "ticks": 0, "skips": 0, "libm ticks": 0}

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
    # A render returns its pixel rectangle last, or None when it cast nothing.
    def rect_area(*args):
        rect = args[-1][2]
        return 0 if rect is None else (rect.u_max - rect.u_min + 1) * (rect.v_max - rect.v_min + 1)

    counter(world, "render_depth_ids", "whole frames",
            lambda *args: args[-1][2] == geometry.BoundingBox(0, 0, 159, 119))
    counter(world, "render_depth_ids", "rectangle pixels", rect_area)
    # A fire hands localization its box's pixels, not a whole frame.
    def box_area(*args):
        det = args[-1]
        if det is None:
            return 0
        return (det.box.u_max - det.box.u_min + 1) * (det.box.v_max - det.box.v_min + 1)

    counter(world, "detect", "fires", lambda *args: args[-1] is not None)
    counter(world, "detect", "box pixels", box_area)
    counter(geometry, "localize_target", "localized pixels", lambda depth, *rest: depth.size)
    counter(navigation, "dwa_step", "ticks")
    counter(navigation.Costmap, "cost_free", "skips", lambda *args: int(args[-1]))
    # A tick that calls math.atan2 took the scalar libm bearing.
    atan2_calls = [0]

    def atan2(y, x, real=math.atan2):
        atan2_calls[0] += 1
        return real(y, x)

    def tick(*args, real=navigation.dwa_step):
        before = atan2_calls[0]
        try:
            return real(*args)
        finally:
            counts["libm ticks"] += atan2_calls[0] > before

    monkeypatch.setattr(math, "atan2", atan2)
    monkeypatch.setattr(navigation, "dwa_step", tick)
    rc = cli.main(["batch", "--scenario", str(SCENARIO_PATH), "--seeds", "10",
                   "--out", str(tmp_path / "batch")])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert counts["frames"] > 0 and counts["ticks"] > 0
    assert counts["frames"] == 21 and counts["whole frames"] == 0
    assert counts["rectangle pixels"] <= 6_000
    assert counts["rays"] / counts["frames"] <= 1_000
    assert counts["rays"] <= 15_000
    assert counts["fires"] == 10 and counts["localized pixels"] == counts["box pixels"]
    assert counts["ticks"] == 561
    assert counts["ticks"] - counts["skips"] <= 150  # the ticks that gather costs
    assert counts["libm ticks"] <= 5
