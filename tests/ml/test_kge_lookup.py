"""The KGE model's shortcuts return what the full computations return.

``TransEModel.reverse_lookup`` answers a query that is a row view of the
model's own embedding table with that row, without a search, when a
once-per-table check proves that no earlier row can also compute
distance 0.0.  ``TransEModel.score`` takes one dot product instead of
``np.linalg.norm``.  Both must agree with the computation they replace
to the bit, every other query must still take the full search, and
neither may change a model's pickle — the bytes the object store and
the result cache see.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.config import default_config
from repro.ml.models import kge
from repro.ml.models.kge import TransEModel

MODELS = default_config().models
ENTITIES = [f"E{i}" for i in range(50)]

#: sha256 of ``pickle.dumps(model, protocol=4)`` of ``small_model()``,
#: recorded before the lookup shortcut existed.
SMALL_PICKLE_SHA256 = (
    "985967050f75c892f4ea11bfea0c9f996905ddba22c328607c261fc16acf8b6b"
)


def small_model():
    return TransEModel(ENTITIES, ["r", "s"], MODELS, seed=29)


def full_search(model, embedding):
    """The search ``reverse_lookup`` ran before the shortcut."""
    distances = np.linalg.norm(model.entity_embeddings - embedding, axis=1)
    return model._entities[int(np.argmin(distances))]


def with_table(rows):
    """A small model whose (read-only) table is ``rows``."""
    model = TransEModel([f"E{i}" for i in range(len(rows))], ["r"], MODELS, dim=2)
    table = np.array(rows, dtype=np.float64)
    table.flags.writeable = False
    model.entity_embeddings = table
    return model


def test_every_row_view_is_its_own_entity_without_a_search():
    model = small_model()
    for row, entity in enumerate(ENTITIES):
        view = model.embedding_of(entity)
        assert model._row_of(view) == row
        assert model.reverse_lookup(view) == entity == full_search(model, view)


def test_embedding_table_rows_take_the_shortcut():
    model = small_model()
    for entity, view in model.embedding_table():
        assert model.reverse_lookup(view) == entity == full_search(model, view)


@pytest.mark.parametrize(
    "make_query",
    [
        lambda view: view.copy(),
        lambda view: view + 1e-9,
        lambda view: view.tolist(),
        lambda view: view[::2],
        lambda view: view.astype(np.float32),
    ],
    ids=["copy", "perturbed", "list", "strided", "float32"],
)
def test_anything_but_a_row_view_takes_the_full_search(make_query):
    model = small_model()
    for entity in ENTITIES[::7]:
        query = make_query(model.embedding_of(entity))
        assert model._row_of(query) is None
        if np.shape(query) == (model.dim,):
            assert model.reverse_lookup(query) == full_search(model, query)


def test_a_view_offset_by_part_of_a_row_takes_the_full_search():
    model = small_model()
    flat = model.entity_embeddings.reshape(-1)
    query = flat[3 : 3 + model.dim]  # straddles rows 0 and 1
    assert query.base is model.entity_embeddings
    assert model._row_of(query) is None
    assert model.reverse_lookup(query) == full_search(model, query)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]],  # duplicate row
        [[0.0, 2.0], [-0.0, 2.0], [5.0, 6.0]],  # duplicate up to the sign of 0
        [[1e-300, 1.0], [2e-300, 1.0], [3.0, 4.0]],  # square underflows to 0
        [[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]],
        [[1.0, 2.0], [np.inf, 4.0], [5.0, 6.0]],
    ],
    ids=["duplicate", "signed-zero", "tiny", "nan", "inf"],
)
def test_tables_that_can_tie_at_zero_take_the_full_search(rows):
    model = with_table(rows)
    for row in range(len(rows)):
        view = model.entity_embeddings[row]
        assert model._row_of(view) is None
        with np.errstate(invalid="ignore"):  # inf - inf
            assert model.reverse_lookup(view) == full_search(model, view)
    # The shortcut would have been wrong on the tables that tie.
    if np.isfinite(model.entity_embeddings).all():
        assert full_search(model, model.entity_embeddings[1]) == "E0"


def test_distinct_rows_sharing_a_first_coordinate_keep_the_shortcut():
    model = with_table([[1.0, 2.0], [1.0, 3.0], [0.0, 0.0], [1e-140, 2.0]])
    for row in range(4):
        view = model.entity_embeddings[row]
        assert model._row_of(view) == row
        assert model.reverse_lookup(view) == full_search(model, view)


def test_a_replaced_table_is_checked_again():
    model = with_table([[1.0, 2.0], [3.0, 4.0]])
    assert model._row_of(model.entity_embeddings[1]) == 1
    duplicated = np.array([[1.0, 2.0], [1.0, 2.0]])
    duplicated.flags.writeable = False
    model.entity_embeddings = duplicated
    assert model._row_of(duplicated[1]) is None
    assert model.reverse_lookup(duplicated[1]) == "E0"


def test_a_writeable_table_takes_the_full_search():
    model = with_table([[1.0, 2.0], [3.0, 4.0]])
    model.entity_embeddings.flags.writeable = True
    assert model._row_of(model.entity_embeddings[1]) is None


def test_the_table_is_read_only():
    model = small_model()
    with pytest.raises(ValueError):
        model.entity_embeddings[0, 0] = 0.0
    with pytest.raises(ValueError):
        model.embedding_of("E3")[:] = 0.0


def test_the_check_adds_nothing_to_the_pickle():
    model = small_model()
    before = hashlib.sha256(pickle.dumps(model, protocol=4)).hexdigest()
    model.reverse_lookup(model.embedding_of("E7"))
    after = hashlib.sha256(pickle.dumps(model, protocol=4)).hexdigest()
    assert model in kge._SEPARATE
    assert before == after == SMALL_PICKLE_SHA256
    clone = pickle.loads(pickle.dumps(model, protocol=4))
    assert clone not in kge._SEPARATE
    for entity in ENTITIES[::5]:
        view = clone.embedding_of(entity)
        assert clone.reverse_lookup(view) == entity == full_search(clone, view)


def test_score_is_the_negated_norm_to_the_bit():
    model = small_model()
    rng = np.random.RandomState(3)
    heads = ENTITIES[:5]
    for scale in (1e-160, 1e-3, 1.0, 1e3, 1e150):
        tails = rng.normal(0.0, scale, size=(400, model.dim))
        for head in heads:
            for relation in ("r", "s"):
                base = model.embedding_of(head) + model.relation_embeddings[relation]
                for tail in tails:
                    expected = -float(np.linalg.norm(base - tail))
                    assert model.score(head, relation, tail) == expected
    for entity in ENTITIES:
        tail = model.embedding_of(entity)
        expected = -float(np.linalg.norm(
            model.embedding_of("E0") + model.relation_embeddings["r"] - tail
        ))
        assert model.score("E0", "r", tail) == expected
