"""Multi-step inference: the paper's KGE product recommendation task.

Builds a product catalog + TransE knowledge-graph model, runs the
filter -> join -> score -> rank -> reverse-lookup pipeline under both
paradigms, then demonstrates the paper's two workflow-side experiments:
operator-count fusion (Fig 12b) and the Python-vs-Scala join (Table I).

Run:  python examples/product_recommendation.py
"""

from repro.tasks import fresh_cluster
from repro.tasks.kge import (
    STAGE_FUSIONS,
    make_kge_dataset,
    run_kge_script,
    run_kge_workflow,
)

# Reduced scale so the example runs in seconds; mechanisms are
# identical at the paper's 6.8k/68k scales (see
# tests/experiments/test_paper_shape.py).
NUM_CANDIDATES = 3000
UNIVERSE = 5000


def main():
    dataset = make_kge_dataset(NUM_CANDIDATES, universe_size=UNIVERSE)
    print(
        f"catalog: {len(dataset.universe)} products "
        f"({NUM_CANDIDATES} candidates), user={dataset.user_id}\n"
    )

    script = run_kge_script(fresh_cluster(), dataset)
    workflow = run_kge_workflow(fresh_cluster(), dataset)

    print("=== top recommendations (reverse-looked-up from embeddings) ===")
    for row in script.output.head(5):
        print(
            f"  #{row['rank']}: {row['name']:14s} ({row['product_id']}) "
            f"score={row['score']:.3f}"
        )
    same = script.output.to_dicts() == workflow.output.to_dicts()
    print(f"\nparadigms agree: {same}")

    print(f"\nscript paradigm:   {script.elapsed_s:7.2f} virtual seconds")
    print(f"workflow paradigm: {workflow.elapsed_s:7.2f} virtual seconds")
    print(
        "-> the script wins KGE (paper Fig 13c): per-tuple Python-UDF "
        "execution and serialization cost the workflow ~30-45%, while "
        "the notebook calls vectorized pandas/numpy steps."
    )

    print("\n=== fusing the pipeline into 1-6 operators (paper Fig 12b) ===")
    for count in sorted(STAGE_FUSIONS):
        run = run_kge_workflow(fresh_cluster(), dataset, num_processing_ops=count)
        stages = " | ".join("+".join(g) for g in STAGE_FUSIONS[count])
        print(f"  {count} op(s): {run.elapsed_s:7.2f}s   [{stages}]")
    print(
        "-> more operators pipeline better, until splitting a "
        "non-bottleneck stage just adds overhead."
    )

    print("\n=== swapping the Python join for 9 Scala operators (Table I) ===")
    for candidates in (300, NUM_CANDIDATES):
        subset = make_kge_dataset(candidates, universe_size=UNIVERSE)
        python = run_kge_workflow(fresh_cluster(), subset, num_processing_ops=3)
        scala = run_kge_workflow(
            fresh_cluster(), subset, num_processing_ops=3, join_language="scala"
        )
        gain = (python.elapsed_s - scala.elapsed_s) / scala.elapsed_s
        print(
            f"  {candidates:5d} candidates: python {python.elapsed_s:7.2f}s   "
            f"scala {scala.elapsed_s:7.2f}s   (scala {gain:+.0%})"
        )
    print(
        "-> Scala streams the embedding table far faster, but that saving "
        "is a *fixed* cost (the table is the whole universe): at larger "
        "candidate counts the advantage vanishes (paper Table I)."
    )


if __name__ == "__main__":
    main()
