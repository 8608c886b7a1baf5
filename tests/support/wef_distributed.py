"""Distributed WEF training — the case the paper excluded.

The paper drops WEF from the worker-scaling experiment because "under
this setting WEF becomes a distributed training task, which is not the
focus of this work" (Section IV-F).  This test fixture implements that
excluded case on the public script runtime: synchronous data-parallel
fine-tuning with per-epoch model averaging.  No figure or CLI command
runs it; ``tests/tasks/test_wef_distributed.py`` and the X1 shape test
in ``tests/experiments/test_paper_shape.py`` do.

Each epoch: the driver broadcasts the current weights, every worker
runs one SGD epoch over its shard (charging its share of the FLOPs in
parallel), and the driver averages the returned parameters — classic
local-SGD/model-averaging.  The math is real: the averaged classifier
genuinely converges (tests assert above-chance held-out accuracy), it
just follows a different trajectory than sequential SGD.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cluster import Cluster
from repro.datasets.wildfire import FRAMINGS, LabeledTweet
from repro.rayx import TaskContext, run_script
from repro.relational import Table
from repro.tasks.base import PARADIGM_SCRIPT, TaskRun, run_trace_of
from repro.tasks.wef.common import (
    LOSS_SCHEMA,
    WEF_COSTS,
    make_framing_model,
    training_pairs,
)


def _train_shard(ctx: TaskContext, framing_index: int, weights, bias, shard):
    """Remote task: one local SGD epoch from the broadcast parameters."""
    model = make_framing_model(framing_index)
    model.weights = np.array(weights)
    model.bias = bias
    model.fitted = True
    loss = model.train_epoch(shard, WEF_COSTS.learning_rate)
    yield from ctx.model_compute(
        sum(model.train_step_flops(text) for text, _ in shard)
    )
    return model.weights, model.bias, loss, len(shard)


def _shards(pairs: Sequence, pieces: int) -> List[List]:
    shards = [list(pairs[i::pieces]) for i in range(pieces)]
    return [shard for shard in shards if shard]


def run_wef_distributed(
    cluster: Cluster, tweets: Sequence[LabeledTweet], num_cpus: int = 2
) -> TaskRun:
    """Data-parallel WEF fine-tuning with per-epoch model averaging."""
    if num_cpus < 1:
        raise ValueError(f"num_cpus must be >= 1, got {num_cpus}")

    def driver(rt):
        rows = []
        models = {}
        for index, framing in enumerate(FRAMINGS):
            pairs = training_pairs(tweets, index)
            shards = _shards(pairs, num_cpus)
            model = make_framing_model(index)
            for epoch in range(WEF_COSTS.epochs):
                refs = [
                    rt.submit(
                        _train_shard,
                        index,
                        model.weights.tolist(),
                        model.bias,
                        shard,
                        label=f"{framing}-shard",
                    )
                    for shard in shards
                ]
                results = yield from rt.get_all(refs)
                total = sum(count for _w, _b, _l, count in results)
                # Example-weighted parameter average (local SGD).
                model.weights = sum(
                    np.asarray(w) * (count / total)
                    for w, _b, _l, count in results
                )
                model.bias = sum(b * (count / total) for _w, b, _l, count in results)
                model.fitted = True
                mean_loss = sum(
                    loss * (count / total) for _w, _b, loss, count in results
                )
                rows.append([framing, epoch, float(mean_loss)])
            models[framing] = model
        return Table.from_rows(LOSS_SCHEMA, rows), models

    cluster.tracer.label_run("wef-distributed/script")
    start = cluster.env.now
    output, models = run_script(cluster, driver, num_cpus=num_cpus)
    return TaskRun(
        task="wef-distributed",
        paradigm=PARADIGM_SCRIPT,
        output=output,
        elapsed_s=cluster.env.now - start,
        num_workers=num_cpus,
        trace=run_trace_of(cluster),
        extras={"num_tweets": len(tweets), "models": models},
    )
