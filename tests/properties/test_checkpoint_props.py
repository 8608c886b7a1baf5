"""Property: an executor's checkpoint restores what a deep copy restored.

Under fault injection the engine checkpoints every consumer instance
at each batch boundary (``OperatorExecutor.snapshot``), and a crash
mid-batch rolls it back (``restore``) before the batch replays.  Each
executor class copies only its declared mutable state, so the
checkpoint is held to the one it replaced — a deep copy of the whole
executor (``tests/support/checkpoint_oracle.py``): snapshot anywhere,
process part of the next batch (one or more times over), restore, then
replay; every output, every pending charge and the final state must
equal the oracle's.

Every operator type in the spec registry is covered.  Only the two
task executors keep the deep-copy default; a test pins that list.
"""

import functools
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gen.operators  # noqa: F401  (registers the gen source types)
import repro.tasks.kge.workflow  # noqa: F401  (registers kge_stage)
import repro.tasks.wef.workflow  # noqa: F401  (registers wef_ensemble_train)
from repro.config import default_config
from repro.relational import FieldType, Schema, Table, Tuple, column_greater
from repro.tasks.kge.common import make_kge_dataset
from repro.tasks.kge.workflow import KgeStageOperator
from repro.tasks.table import TASKS
from repro.tasks.wef.common import tweets_table
from repro.tasks.wef.workflow import EnsembleTrainOperator
from repro.workflow.operator import (
    DeclaredStateExecutor,
    LogicalOperator,
    OperatorExecutor,
    PendingCharge,
)
from repro.workflow.operators import (
    AggregationFunction,
    CsvSource,
    DistinctOperator,
    FilterOperator,
    FlatMapOperator,
    GroupByOperator,
    HashJoinOperator,
    JsonlSource,
    LimitOperator,
    MapOperator,
    ModelApplyOperator,
    ProjectionOperator,
    SampleOperator,
    SinkOperator,
    SortOperator,
    TableSource,
    TopKOperator,
    TrainOperator,
    UnionOperator,
    VisualizationOperator,
)
from repro.workflow.spec import operator_types
from tests.support import checkpoint_oracle as oracle

SCHEMA = Schema.of(k=FieldType.INT, v=FieldType.FLOAT, s=FieldType.STRING)


class _Scale:
    def __init__(self, factor):
        self.factor = factor


class _TinyModel:
    """Enough of a classifier for ``TrainOperator``."""

    name = "tiny"

    def __init__(self):
        self.steps = 0

    def train_epoch(self, examples, learning_rate):
        self.steps += len(examples)
        return sum(label for _, label in examples) * learning_rate + self.steps

    def train_step_flops(self, text):
        return 10.0 * len(text)


def _double(row):
    return [row["k"] * 2, row["v"], row["s"]]


def _repeat(row):
    return [row.values] * (row["k"] % 3)


def _apply(model, row):
    return [row["k"], row["v"] * model.factor, row["s"]]


def _join_build(how):
    return HashJoinOperator("join", build_key="k", probe_key="k", how=how)


@functools.lru_cache(maxsize=None)
def _kge_dataset():
    return make_kge_dataset(40, universe_size=300)


@functools.lru_cache(maxsize=None)
def _wef_table():
    return tweets_table(TASKS["wef"].dataset(12))


def _generic_rows(draw_rows):
    return draw_rows(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.floats(-2, 2, allow_nan=False),
                st.sampled_from(["a", "b", "ab", ""]),
            ).map(lambda values: Tuple(SCHEMA, values)),
            max_size=14,
        )
    )


#: Consumer operators, each fed ``SCHEMA`` rows on every input port:
#: registry type (or ``type/variant``) -> a fresh configured operator.
CONSUMERS = {
    "filter": lambda: FilterOperator("filter", column_greater("v", 0.0)),
    "projection": lambda: ProjectionOperator("projection", ["s", "k"]),
    "map": lambda: MapOperator(
        "map", SCHEMA, _double, flops_per_tuple=2.0,
        extra_seconds_fn=lambda row: abs(row["v"]) * 1e-6,
    ),
    "flat_map": lambda: FlatMapOperator(
        "flat_map", SCHEMA, _repeat, extra_seconds_fn=lambda row: 1e-6
    ),
    "union": lambda: UnionOperator("union", 2),
    "hash_join": lambda: _join_build("inner"),
    "hash_join/left": lambda: _join_build("left"),
    "group_by": lambda: GroupByOperator(
        "group_by", "k", AggregationFunction.SUM, value_field="v"
    ),
    "group_by/count": lambda: GroupByOperator(
        "group_by", "s", AggregationFunction.COUNT
    ),
    "sort": lambda: SortOperator("sort", "v"),
    "top_k": lambda: TopKOperator("top_k", "v", 3),
    "limit": lambda: LimitOperator("limit", 4),
    "distinct": lambda: DistinctOperator("distinct", key="k"),
    "distinct/row": lambda: DistinctOperator("distinct"),
    "sample": lambda: SampleOperator("sample", 3),
    "sample/key": lambda: SampleOperator("sample", 2, key="s"),
    "sink": lambda: SinkOperator("sink"),
    "visualization": lambda: VisualizationOperator("viz", "bar", "k", "v"),
    "model_apply": lambda: ModelApplyOperator(
        "model_apply", SCHEMA, lambda: _Scale(2.0), _apply,
        lambda model, row: 5.0, load_seconds=0.25,
    ),
    "train": lambda: TrainOperator(
        "train", _TinyModel, text_field="s", label_field="k", epochs=2
    ),
}

#: Task operators: name -> (fresh operator, the real input table).
TASK_CONSUMERS = {
    "kge_stage": (
        lambda: KgeStageOperator(
            "kge", _kge_dataset(), ("filter", "join", "score", "rank", "lookup"),
            default_config().models,
        ),
        lambda: _kge_dataset().candidates_table,
    ),
    "kge_stage/filter": (
        lambda: KgeStageOperator(
            "kge", _kge_dataset(), ("filter",),
            default_config().models,
        ),
        lambda: _kge_dataset().candidates_table,
    ),
    "wef_ensemble_train": (
        lambda: EnsembleTrainOperator("train-framing-ensemble", epochs=1),
        _wef_table,
    ),
}

SOURCES = {
    "table_source": lambda: TableSource(
        "table", Table.from_rows(SCHEMA, [[1, 0.5, "a"], [2, 1.5, "b"]])
    ),
    "csv_source": lambda: CsvSource("csv", "k,v,s\n1,0.5,a\n2,1.5,b\n", SCHEMA),
    "jsonl_source": lambda: JsonlSource(
        "records", [{"k": 1, "v": 0.5, "s": "a"}, {"k": 2}], SCHEMA
    ),
    "micro_batch_source": lambda: repro.gen.operators.MicroBatchSource(
        "micro", [{"k": i, "v": 0.5, "s": "a"} for i in range(5)], SCHEMA,
        batch_size=2, interval_s=0.1,
    ),
    "raster_source": lambda: repro.gen.operators.RasterTileSource("raster", tiles=3),
}


def test_every_registered_operator_type_is_covered():
    covered = {name.split("/")[0] for name in [*CONSUMERS, *TASK_CONSUMERS, *SOURCES]}
    assert covered == set(operator_types())


def _compile(operator, schemas):
    operator.output_schema(list(schemas))
    return operator.create_executor(0)


def _plain(value):
    """Executor state as comparable data (identity-free)."""
    if isinstance(value, Tuple):
        return ("row", _plain(value.values))
    if isinstance(value, LogicalOperator):
        # Plan data: the checkpoint shares it, the oracle copied it.
        return ("operator", value.operator_id)
    if isinstance(value, PendingCharge):
        return ("pending", value.seconds, value.flops)
    if value is None or isinstance(value, (bool, int, float, str, bytes, type, Enum)):
        return value
    if isinstance(value, np.ndarray):
        return ("array", value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if callable(value) and not hasattr(value, "__dict__"):
        return value
    state = dict(getattr(value, "__dict__", {}))
    for klass in type(value).__mro__:
        for name in klass.__dict__.get("__slots__", ()):
            state[name] = getattr(value, name)
    if not state:
        return type(value).__qualname__
    return (type(value).__qualname__, _plain(state))


def _events(ports):
    """The engine's call order: each port's rows, then its on_finish."""
    events = []
    for port, rows in enumerate(ports):
        events.extend(("row", port, row) for row in rows)
        events.append(("finish", port, None))
    return events


def _step(executor, event):
    kind, port, row = event
    if kind == "row":
        out = list(executor.process_tuple(row, port))
    else:
        out = list(executor.on_finish(port))
    return [row.values for row in out], executor.pending.take()


def _drive(executor, events, at, lost, crashes, consume, take, put):
    """Run ``events`` with a checkpoint before event ``at`` and
    ``crashes`` crashes after ``lost`` more rows; return the record.

    The engine's crashed half calls ``process_tuple`` without consuming
    a generator; ``consume`` runs the lost rows through in full.
    """
    executor.open()
    record = [executor.pending.take()]
    for event in events[:at]:
        record.append(_step(executor, event))
    executor.charge(1e-3)  # a pending charge the checkpoint must keep
    state = take(executor)
    for _ in range(crashes):
        for event in events[at : at + lost]:
            out = executor.process_tuple(event[2], event[1])
            if consume:
                list(out)
        executor = put(executor, state)
    for event in events[at:]:
        record.append(_step(executor, event))
    final = _plain(vars(executor))
    executor.close()
    return record, final


def _restore_in_place(executor, state):
    executor.restore(state)
    return executor


def _check(make, schemas, ports, data):
    events = _events(ports)
    # A checkpoint sits before a batch: before some row event.
    candidates = [i for i, event in enumerate(events) if event[0] == "row"]
    if not candidates:
        candidates = [0]
    at = data.draw(st.sampled_from(candidates), label="checkpoint at")
    run = 0
    while at + run < len(events) and events[at + run][0] == "row":
        run += 1
    lost = data.draw(st.integers(0, run), label="rows lost")
    crashes = data.draw(st.integers(1, 2), label="crashes")
    consume = data.draw(st.booleans(), label="consume lost rows")
    got = _drive(
        _compile(make(), schemas), events, at, lost, crashes, consume,
        lambda executor: executor.snapshot(), _restore_in_place,
    )
    want = _drive(
        _compile(make(), schemas), events, at, lost, crashes, consume,
        oracle.snapshot, lambda _executor, state: oracle.restore(state),
    )
    assert got == want


def _ports_for(name, data):
    if name.startswith(("hash_join", "union")):
        return [_generic_rows(data.draw), _generic_rows(data.draw)]
    return [_generic_rows(data.draw)]


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_restore_then_replay_matches_the_deep_copy_oracle(name, data):
    ports = _ports_for(name, data)
    _check(CONSUMERS[name], [SCHEMA] * len(ports), ports, data)


@pytest.mark.parametrize("name", sorted(TASK_CONSUMERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_task_executors_match_the_deep_copy_oracle(name, data):
    make, table = TASK_CONSUMERS[name]
    rows = data.draw(st.lists(st.sampled_from(table().rows), min_size=1, max_size=10))
    _check(make, [table().schema], [rows], data)


def test_source_checkpoint_restores_the_pending_charge():
    for name, make in SOURCES.items():
        executor = _compile(make(), [])
        executor.charge(0.5)
        state = executor.snapshot()
        list(executor.produce())
        executor.restore(state)
        assert executor.pending.take() == (0.5, 0.0), name
        assert isinstance(executor, DeclaredStateExecutor), name


def _executor_classes():
    seen, todo = set(), [OperatorExecutor]
    while todo:
        for klass in todo.pop().__subclasses__():
            if klass not in seen and klass.__module__.startswith("repro."):
                seen.add(klass)
                todo.append(klass)
    return seen


def test_only_the_task_executors_keep_the_deep_copy_default():
    deep = {
        klass.__qualname__
        for klass in _executor_classes()
        if klass.snapshot is OperatorExecutor.snapshot
    }
    assert deep == {"_KgeStageExecutor", "_EnsembleTrainExecutor"}


def test_the_deep_copy_default_shares_the_operator():
    operator = EnsembleTrainOperator("train-framing-ensemble", epochs=1)
    executor = _compile(operator, [_wef_table().schema])
    state = executor.snapshot()
    executor.process_tuple(_wef_table().rows[0], 0)
    executor.restore(state)
    assert executor._op is operator
    assert executor._rows == []
