"""Unit tests for named RNG streams."""

import pytest

from repro.sim.rng import RngStreams


def test_same_name_same_object():
    streams = RngStreams(42)
    assert streams.stream("a") is streams.stream("a")


def test_streams_reproducible_across_instances():
    a = RngStreams(42).stream("backoff").random(10).tolist()
    b = RngStreams(42).stream("backoff").random(10).tolist()
    assert a == b


def test_different_names_independent():
    streams = RngStreams(42)
    a = streams.stream("a").random(10).tolist()
    b = streams.stream("b").random(10).tolist()
    assert a != b


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(10).tolist()
    b = RngStreams(2).stream("x").random(10).tolist()
    assert a != b


def test_creation_order_does_not_matter():
    first = RngStreams(7)
    first.stream("alpha")
    alpha_then_beta = first.stream("beta").random(5).tolist()

    second = RngStreams(7)
    beta_only = second.stream("beta").random(5).tolist()
    assert alpha_then_beta == beta_only


def test_fork_changes_streams():
    base = RngStreams(3)
    forked = base.fork(1)
    assert base.stream("x").random(5).tolist() != forked.stream("x").random(5).tolist()


def test_fork_reproducible():
    a = RngStreams(3).fork(5).stream("x").random(5).tolist()
    b = RngStreams(3).fork(5).stream("x").random(5).tolist()
    assert a == b


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngStreams("seed")  # type: ignore[arg-type]
