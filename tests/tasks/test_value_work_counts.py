"""Count pins: pure per-value work runs once per value on the paper tasks.

Two results are pure functions of their input and used to be recomputed
every time they were asked for: a frozen encoder's features of a text
(Fig 13b fine-tunes the same four frozen-embedding models on growing
prefixes of one corpus, under both paradigms), and the size of a join
output row (its values are its two sides' values, already sized).
Both are counted with ``sys.setprofile`` — no wall clock — chaining to
an outer profiler, which keeps seeing every event and is back in place
afterwards.
"""

import sys

from repro.cluster import estimate_bytes
from repro.datasets import generate_maccrobat
from repro.experiments.exp_scaling import run_fig13b
from repro.ml.models import bert
from repro.ml.tokenizer import HashingTokenizer
from repro.relational import StreamingHashJoin, Tuple
from repro.tasks import fresh_cluster
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
