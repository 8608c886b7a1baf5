"""Tests for the distributed-WEF extension (the paper's excluded case)."""

import pytest

from repro.datasets import FRAMINGS, generate_wildfire_tweets, train_test_split
from repro.ml import accuracy
from repro.tasks import fresh_cluster
from repro.tasks.wef import run_wef_script
from tests.support.wef_distributed import run_wef_distributed

TWEETS = generate_wildfire_tweets(120, seed=11)


def test_distributed_training_converges():
    run = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=4)
    by_model = {}
    for row in run.output:
        by_model.setdefault(row["model_name"], []).append(row["loss"])
    assert set(by_model) == set(FRAMINGS)
    for losses in by_model.values():
        assert losses[-1] < losses[0]


def test_distributed_models_beat_chance():
    tweets = generate_wildfire_tweets(300, seed=11)
    train, test = train_test_split(tweets)
    run = run_wef_distributed(fresh_cluster(), train, num_cpus=4)
    model = run.extras["models"][FRAMINGS[0]]
    truth = [t.labels[0] for t in test]
    predictions = [model.predict(t.text) for t in test]
    assert accuracy(truth, predictions) > 0.65


def test_distributed_scales_with_workers():
    """The whole point of the excluded experiment: training parallelizes."""
    one = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=1)
    four = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=4)
    assert four.elapsed_s < one.elapsed_s
    assert one.elapsed_s / four.elapsed_s > 2.5


def test_distributed_beats_sequential_wall_time():
    sequential = run_wef_script(fresh_cluster(), TWEETS, num_cpus=1)
    distributed = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=4)
    assert distributed.elapsed_s < sequential.elapsed_s


def test_single_worker_distributed_matches_sequential_losses():
    """With one shard, model averaging degenerates to plain SGD."""
    sequential = run_wef_script(fresh_cluster(), TWEETS)
    distributed = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=1)
    seq = sorted(tuple(r.values) for r in sequential.output)
    dist = sorted(tuple(r.values) for r in distributed.output)
    assert [(m, e) for m, e, _ in seq] == [(m, e) for m, e, _ in dist]
    for (_, _, a), (_, _, b) in zip(seq, dist):
        assert a == pytest.approx(b)


def test_distributed_is_deterministic():
    a = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=3)
    b = run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=3)
    assert a.elapsed_s == b.elapsed_s
    assert a.output.to_dicts() == b.output.to_dicts()


def test_distributed_validates_workers():
    with pytest.raises(ValueError):
        run_wef_distributed(fresh_cluster(), TWEETS, num_cpus=0)
