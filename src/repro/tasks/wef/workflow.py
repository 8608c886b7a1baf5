"""WEF under the workflow paradigm (Texera substitute).

The Figure 5 ensemble as a workflow: a tweet source feeds a custom
ensemble-training operator that fine-tunes the four framing models,
emitting one (model, epoch, loss) row per epoch into the results sink.

The four fine-tunings run *sequentially inside one operator* with
``framework_cores=1``: the paper observes that "WEF did not use a
distributed training algorithm, each paradigm was executing it with no
parallelism" (Section IV-E), and indeed measured near-identical times
on both platforms (Figure 13b).  Had the ensemble been split into four
concurrent training operators, the workflow would have finished ~4x
earlier — which the paper's numbers rule out.

The module doubles as the repository's example of a *custom* logical
operator built on the public extension API
(:class:`repro.workflow.LogicalOperator`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.cluster import Cluster
from repro.datasets.wildfire import FRAMINGS, LabeledTweet
from repro.relational import Schema, Tuple
from repro.tasks.base import PARADIGM_WORKFLOW, TaskRun, run_trace_of
from repro.tasks.wef.common import (
    LOSS_SCHEMA,
    WEF_COSTS,
    make_framing_model,
    tweets_table,
)
from repro.workflow import LogicalOperator, OperatorExecutor, Workflow, run_workflow
from repro.workflow.spec import (
    SPEC_VERSION,
    load_workflow_json,
    param_form,
    register_operator_type,
)

__all__ = [
    "EnsembleTrainOperator",
    "build_wef_workflow",
    "run_wef_workflow",
    "wef_spec_dict",
]


class _EnsembleTrainExecutor(OperatorExecutor):
    def __init__(self, operator: "EnsembleTrainOperator") -> None:
        super().__init__()
        self._op = operator
        self._rows: List[Tuple] = []

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        self._rows.append(row)
        return ()

    def on_finish(self, port: int) -> Iterable[Tuple]:
        out: List[Tuple] = []
        for index, framing in enumerate(FRAMINGS):
            model = make_framing_model(index)
            pairs = [
                (row["text"], row[f"label_{index}"]) for row in self._rows
            ]
            for epoch in range(self._op.epochs):
                loss = model.train_epoch(pairs, self._op.learning_rate)
                self.charge_flops(
                    sum(model.train_step_flops(text) for text, _ in pairs)
                )
                out.append(Tuple(LOSS_SCHEMA, [model.name, epoch, loss]))
            self._op.trained_models[framing] = model
        return out


class EnsembleTrainOperator(LogicalOperator):
    """Blocking operator fine-tuning the four WEF framing models.

    Sequential SGD over the collected tweets; ``framework_cores=1``
    because per-example gradient steps do not parallelize (same reason
    Ray's 1-CPU pinning costs the script nothing here).
    """

    def __init__(
        self,
        operator_id: str,
        epochs: int = WEF_COSTS.epochs,
        learning_rate: float = WEF_COSTS.learning_rate,
    ) -> None:
        super().__init__(
            operator_id,
            num_workers=1,
            per_tuple_work_s=1.0e-6,
            framework_cores=1,
        )
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.trained_models = {}

    @property
    def is_blocking(self) -> bool:
        return True

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        schema.index_of("text")
        for index in range(len(FRAMINGS)):
            schema.index_of(f"label_{index}")
        return LOSS_SCHEMA

    def create_executor(self, worker_index: int = 0):
        return _EnsembleTrainExecutor(self)


# The spec layer refers to the custom operator by this type name — the
# extension hook GUI systems expose as "install a custom operator".
register_operator_type("wef_ensemble_train", EnsembleTrainOperator)


def wef_spec_dict() -> Dict[str, Any]:
    """The Figure 5 ensemble-training DAG as a spec document."""
    return {
        "spec": SPEC_VERSION,
        "name": "wef",
        "operators": [
            {
                "id": "tweets",
                "type": "table_source",
                "config": {"table": param_form("tweets")},
            },
            {
                "id": "train-framing-ensemble",
                "type": "wef_ensemble_train",
                "config": {},
            },
            {"id": "training-summary", "type": "sink", "config": {}},
        ],
        "links": [
            {"from": "tweets", "to": "train-framing-ensemble", "out": 0, "in": 0},
            {
                "from": "train-framing-ensemble",
                "to": "training-summary",
                "out": 0,
                "in": 0,
            },
        ],
    }


def build_wef_workflow(tweets: Sequence[LabeledTweet]) -> Workflow:
    """Compile the WEF spec with the tweet table bound at runtime."""
    doc = wef_spec_dict()
    return load_workflow_json(doc, {"tweets": tweets_table(tweets)})


def run_wef_workflow(cluster: Cluster, tweets: Sequence[LabeledTweet]) -> TaskRun:
    """Run the workflow-paradigm WEF task; returns its :class:`TaskRun`."""
    wf = build_wef_workflow(tweets)
    cluster.tracer.label_run("wef/workflow")
    result = run_workflow(cluster, wf)
    train = wf.operators["train-framing-ensemble"]
    return TaskRun(
        task="wef",
        paradigm=PARADIGM_WORKFLOW,
        output=result.table("training-summary"),
        elapsed_s=result.elapsed_s,
        num_workers=1,
        trace=run_trace_of(cluster),
        extras={
            "num_tweets": len(tweets),
            "models": dict(train.trained_models),
            "num_operators": wf.num_operators,
        },
    )
