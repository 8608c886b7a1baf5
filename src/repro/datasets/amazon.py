"""Synthetic Amazon product catalog + pre-trained KGE model (KGE task).

Substitute for the paper's proprietary Amazon data (Section II-D): a
catalog of candidate products (some out of stock — the KGE task's
availability filter removes them), a set of users, and a "pre-trained"
:class:`~repro.ml.models.kge.TransEModel` over all entities that plays
the 375 MB knowledge-graph embedding model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import ModelConfig, default_config
from repro.datasets.synth import BulkDraws, SyllableNameGenerator, pick
from repro.ml.models.kge import TransEModel
from repro.relational import FieldType, Schema, Table

__all__ = [
    "Product",
    "PRODUCT_SCHEMA",
    "PURCHASE_RELATION",
    "generate_catalog",
    "catalog_table",
    "build_kge_model",
    "user_ids",
]

_CATEGORIES = ["electronics", "books", "kitchen", "garden", "toys", "sports"]

#: Relation used for purchase prediction.
PURCHASE_RELATION = "will_purchase"

PRODUCT_SCHEMA = Schema.of(
    product_id=FieldType.STRING,
    name=FieldType.STRING,
    category=FieldType.STRING,
    price=FieldType.FLOAT,
    in_stock=FieldType.BOOL,
)


@dataclass(frozen=True)
class Product:
    """One candidate product."""

    product_id: str
    name: str
    category: str
    price: float
    in_stock: bool


def generate_catalog(
    num_products: int = 6800,
    seed: int = 23,
    out_of_stock_fraction: float = 0.15,
) -> List[Product]:
    """Generate candidates (the paper uses 6.8k and 68k)."""
    if num_products < 1:
        raise ValueError(f"num_products must be >= 1, got {num_products}")
    if not 0.0 <= out_of_stock_fraction < 1.0:
        raise ValueError(
            f"out_of_stock_fraction must be in [0, 1), got {out_of_stock_fraction}"
        )
    rng = BulkDraws(seed)
    names = SyllableNameGenerator(rng)
    products: List[Product] = []
    for index in range(num_products):
        products.append(
            Product(
                product_id=f"P{index:06d}",
                name=names.word(2),
                category=pick(rng, _CATEGORIES),
                price=round(float(rng.uniform(3.0, 400.0)), 2),
                in_stock=bool(rng.uniform() >= out_of_stock_fraction),
            )
        )
    return products


def catalog_table(products: List[Product]) -> Table:
    """The catalog as a relational table (both paradigms scan this)."""
    return Table.from_rows(
        PRODUCT_SCHEMA,
        (
            [p.product_id, p.name, p.category, p.price, p.in_stock]
            for p in products
        ),
    )


def user_ids(num_users: int = 16) -> List[str]:
    """Deterministic user entity ids."""
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    return [f"U{index:04d}" for index in range(num_users)]


def build_kge_model(
    products: List[Product],
    users: List[str],
    model_config: ModelConfig = None,
    seed: int = 29,
) -> TransEModel:
    """The "pre-trained" embedding model over users + products."""
    entity_ids = users + [p.product_id for p in products]
    return TransEModel(
        entity_ids,
        [PURCHASE_RELATION],
        model_config or default_config().models,
        seed=seed,
    )
