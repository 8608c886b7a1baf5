"""Machine-learning operators: model application and training.

These mirror how Texera workflows wrap models:

* :class:`ModelApplyOperator` loads a model in ``open()`` (charging the
  load cost once per worker instance) and applies it per tuple,
  charging framework FLOPs which the engine runs *unpinned* across
  cores unless the operator narrows ``framework_cores``;
* :class:`TrainOperator` is blocking: it collects its labelled input,
  fine-tunes a model at end-of-input (sequential SGD, so
  ``framework_cores=1``), and emits a summary row per epoch.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Field, FieldType, Schema, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator

__all__ = ["ModelApplyOperator", "TrainOperator", "TRAIN_SUMMARY_SCHEMA"]


class _ModelApplyExecutor(DeclaredStateExecutor):
    # The model is loaded in open() and only read afterwards.
    def __init__(self, operator: "ModelApplyOperator") -> None:
        super().__init__()
        self._op = operator
        self._model: Any = None

    def open(self) -> None:
        self._model = self._op.loader()
        self.charge(self._op.load_seconds)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        self.charge_flops(self._op.flops_fn(self._model, row))
        values = self._op.apply_fn(self._model, row)
        yield Tuple(self._op.output_schema([]), values)

    def close(self) -> None:
        self._model = None


class ModelApplyOperator(LogicalOperator):
    """Per-tuple model inference with an ``open()``-time model load.

    Parameters
    ----------
    loader:
        Zero-argument callable returning the (real) model object; runs
        once per worker instance.
    load_seconds:
        Virtual cost of the load (disk read + initialization).  The
        paper's GOTTA analysis hinges on when/where this is paid.
    apply_fn:
        ``(model, row) -> values`` producing one output row.
    flops_fn:
        ``(model, row) -> FLOPs`` of the forward pass for this row.
    """

    def __init__(
        self,
        operator_id: str,
        output_schema: Schema,
        loader: Callable[[], Any],
        apply_fn: Callable[[Any, Tuple], Sequence[Any]],
        flops_fn: Callable[[Any, Tuple], float],
        load_seconds: float = 0.0,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 5.0e-7,
        framework_cores: Optional[int] = None,
    ) -> None:
        if load_seconds < 0:
            raise InvalidWorkflow(
                f"model operator {operator_id!r}: negative load_seconds"
            )
        super().__init__(
            operator_id, language, num_workers, per_tuple_work_s, framework_cores
        )
        self._output_schema = output_schema
        self.loader = loader
        self.apply_fn = apply_fn
        self.flops_fn = flops_fn
        self.load_seconds = load_seconds

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        return self._output_schema

    def create_executor(self, worker_index: int = 0):
        return _ModelApplyExecutor(self)


#: Output of :class:`TrainOperator`: one row per training epoch.
TRAIN_SUMMARY_SCHEMA = Schema(
    [
        Field("model_name", FieldType.STRING),
        Field("epoch", FieldType.INT),
        Field("loss", FieldType.FLOAT),
    ]
)


class _TrainExecutor(DeclaredStateExecutor):
    def __init__(self, operator: "TrainOperator") -> None:
        super().__init__()
        self._op = operator
        self._examples = []

    def snapshot(self):
        # Append-only until on_finish: an example count is the state.
        return super().snapshot(), len(self._examples)

    def restore(self, state) -> None:
        pending, count = state
        super().restore(pending)
        del self._examples[count:]

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        self._examples.append((row[self._op.text_field], row[self._op.label_field]))
        return ()

    def on_finish(self, port: int) -> Iterable[Tuple]:
        model = self._op.loader()
        self.charge(self._op.load_seconds)
        rows = []
        for epoch in range(self._op.epochs):
            loss = model.train_epoch(self._examples, self._op.learning_rate)
            self.charge_flops(
                sum(model.train_step_flops(text) for text, _ in self._examples)
            )
            rows.append(Tuple(TRAIN_SUMMARY_SCHEMA, [model.name, epoch, loss]))
        self._op.trained_model = model
        return rows


class TrainOperator(LogicalOperator):
    """Blocking fine-tuning of a :class:`SimBertClassifier`-like model.

    Emits one ``(model_name, epoch, loss)`` row per epoch; the trained
    model object is exposed on :attr:`trained_model` after execution
    (the analogue of the workflow writing a model artifact).

    Training is sequential SGD, so framework compute is pinned to one
    core *in both paradigms* — this is why the paper's WEF timings are
    nearly identical across platforms (Section IV-E).
    """

    def __init__(
        self,
        operator_id: str,
        loader: Callable[[], Any],
        text_field: str = "text",
        label_field: str = "label",
        epochs: int = 3,
        learning_rate: float = 0.5,
        load_seconds: float = 0.0,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 5.0e-7,
    ) -> None:
        if epochs < 1:
            raise InvalidWorkflow(f"train operator {operator_id!r}: epochs >= 1")
        super().__init__(
            operator_id,
            language,
            num_workers=1,
            per_tuple_work_s=per_tuple_work_s,
            framework_cores=1,
        )
        self.loader = loader
        self.text_field = text_field
        self.label_field = label_field
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.load_seconds = load_seconds
        self.trained_model: Any = None

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        schema.index_of(self.text_field)
        schema.index_of(self.label_field)
        return TRAIN_SUMMARY_SCHEMA

    def create_executor(self, worker_index: int = 0):
        return _TrainExecutor(self)
