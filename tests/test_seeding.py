import numpy as np
import pytest

from aansim import seeding


def draws(gen, n=8):
    return gen.random(n).tolist()


def test_same_key_reproduces_exactly():
    a = seeding.stream(7, "A", "user")
    b = seeding.stream(7, "A", "user")
    assert draws(a) == draws(b)


def test_streams_differ_across_names_conditions_and_seeds():
    base = draws(seeding.stream(7, "A", "user"))
    assert draws(seeding.stream(7, "A", "detector")) != base
    assert draws(seeding.stream(7, "B", "user")) != base
    assert draws(seeding.stream(8, "A", "user")) != base


def test_condition_none_is_shared_across_paired_runs():
    # Placement must describe the same situation for both arms of a pair.
    pa = draws(seeding.stream(3, None, "placement"))
    pb = draws(seeding.stream(3, None, "placement"))
    assert pa == pb
    assert pa != draws(seeding.stream(3, "A", "placement"))
    assert pa != draws(seeding.stream(3, "B", "placement"))


def test_consuming_one_stream_does_not_shift_another():
    a1 = seeding.stream(11, "A", "user")
    g1 = seeding.stream(11, "A", "gaze")
    a1.random(1000)  # burn
    assert draws(g1) == draws(seeding.stream(11, "A", "gaze"))


def test_unknown_stream_name_rejected():
    with pytest.raises(KeyError):
        seeding.stream(0, "A", "nope")


def test_generators_are_philox_backed():
    g = seeding.stream(0, "A", "user")
    assert isinstance(g.bit_generator, np.random.Philox)
