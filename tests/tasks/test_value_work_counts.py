"""Count pins: pure per-value work runs once per value on the paper tasks.

Some results are pure functions of their input and used to be
recomputed every time they were asked for: a frozen encoder's features
of a text and a text's token count (Fig 13b fine-tunes the same four
frozen-embedding models on growing prefixes of one corpus, under both
paradigms), the size of a join output row (its values are its two
sides' values, already sized), and the nearest entity to an embedding
that is a row of the KGE model's own table.  All are counted with
``sys.setprofile`` — no wall clock — chaining to an outer profiler,
which keeps seeing every event and is back in place afterwards.
"""

import inspect
import sys
from collections import Counter

import numpy as np

from repro.cluster import estimate_bytes
from repro.datasets import generate_maccrobat
from repro.experiments.exp_scaling import run_fig13b
from repro.ml import tokenizer
from repro.ml.models import bert
from repro.ml.models.kge import TransEModel
from repro.ml.tokenizer import HashingTokenizer
from repro.relational import StreamingHashJoin, Tuple
from repro.tasks import TASKS, fresh_cluster
from repro.tasks.table import KGE_SMALL
from repro.tasks.dice import run_dice_workflow


def profiled(run, hook):
    """``run()``'s result, with ``hook(frame, event, arg)`` seeing every
    profile event of the run."""
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        hook(frame, event, arg)

    sys.setprofile(profile)
    try:
        return run()
    finally:
        sys.setprofile(outer)


def test_fig13b_tokenizes_each_text_once_per_frozen_table():
    """400 distinct tweets under four framing models: 1 600 (seed, text)
    pairs, where the sweep's 200 + 300 + 400 tweets, three epochs and two
    paradigms ask for 21 600 encodings."""
    for memo in bert._FEATURES.values():  # cold, as in a fresh process
        memo.clear()
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is HashingTokenizer.tokenize.__code__:
            calls += 1

    report = profiled(run_fig13b, hook)
    assert report.rows
    assert 0 < calls <= 1_600


def test_fig13b_counts_each_texts_tokens_once():
    """The cost model prices each example's tokens on every epoch, under
    both paradigms; the count's scan runs once per distinct text."""
    tokenizer._COUNTS.clear()  # cold, as in a fresh process
    words = HashingTokenizer.words.__code__
    scans = Counter()

    def hook(frame, event, arg):
        if (
            event == "c_call"
            and getattr(arg, "__self__", None) is tokenizer._TOKEN_RE
            and frame.f_code is not words  # ``tokenize``'s scan
        ):
            scans[frame.f_locals["text"]] += 1

    report = profiled(run_fig13b, hook)
    assert report.rows
    assert scans and max(scans.values()) == 1


def test_paper_size_kge_looks_up_without_a_full_table_search():
    """Every top-k embedding either paradigm looks up is a row of the
    68 016-entity table, so no lookup takes a norm over the table."""
    kge = TASKS["kge"]
    data = kge.dataset(KGE_SMALL)
    table_rows = data.model.num_entities
    norm = inspect.unwrap(np.linalg.norm).__code__
    lookups = searches = 0

    def hook(frame, event, arg):
        nonlocal lookups, searches
        if event != "call":
            return
        if frame.f_code is TransEModel.reverse_lookup.__code__:
            lookups += 1
        elif frame.f_code is norm and np.shape(frame.f_locals["x"])[0] == table_rows:
            searches += 1

    for paradigm in ("script", "workflow"):
        run = profiled(lambda: kge.run(paradigm, data, workers=2), hook)
        assert len(run.output) > 0
    assert table_rows == 68_016
    assert lookups == 2 * len(run.output)
    assert searches == 0


def test_dice_workflow_never_sizes_a_join_output_from_its_values():
    """Every row ``StreamingHashJoin.probe`` yields arrives sized from its
    two sides, so no join output's ``values`` reach ``estimate_bytes``."""
    outputs = {}  # id(values) -> row; holding the row keeps the id unique
    sized = []

    def hook(frame, event, arg):
        code = frame.f_code
        if code is StreamingHashJoin.probe.__code__:
            if event == "return" and isinstance(arg, Tuple):  # a yield
                outputs[id(arg.values)] = arg
        elif code is estimate_bytes.__code__ and event == "call":
            obj = frame.f_locals["obj"]
            if id(obj) in outputs and outputs[id(obj)].values is obj:
                sized.append(obj)

    reports = generate_maccrobat(20)
    run = profiled(lambda: run_dice_workflow(fresh_cluster(), reports), hook)
    assert len(run.output) > 0
    assert len(outputs) > 0, "the DICE workflow joins nothing"
    assert sized == []
