"""Exactness pin for the workflow engine's one way to pay for a batch.

One fixed workflow — scan → Python map → Scala filter → 2-worker hash
group-by → sink: all three codecs, one fan-out, one blocking operator
— runs cold and then warm under a tracer, a memory policy, a
result cache and two operator faults (``keep`` crashes twice on the
same batch), so every charge the engine makes (encode, transfer,
decode, checkpoint, crashed half, restart, lookup, per-tuple work,
sink gather) is on the record.  The digest of everything observable is
a literal recorded at the commit *before* the copies in
``repro.workflow.engine`` were folded into one spanned charge, one
codec charge and one probe/memoise pair; a refactor of that path must
reproduce it to the bit.  ``docs/architecture.md`` ("How a batch is
paid for") names the divergences the digest freezes.
"""

import hashlib
import json

from tests.support.charge_path import observe

DIGEST = "6394f0f3ca3f9d66c105ee05c90484d26e95d755226b159fd23cd982db474ce7"


def test_the_one_charge_path_reproduces_the_recorded_run():
    seen = observe()
    # The runs must keep reaching every charge, or the digest pins nothing.
    cold, warm = seen["runs"]
    assert cold["rows"] == warm["rows"] and len(cold["rows"]) == 7
    assert cold["faults"] == warm["faults"] == (3, 3, 0)
    assert warm["elapsed_s"] < cold["elapsed_s"]
    assert all(used == 0 and anonymous == 0 for _, used, anonymous in cold["ram"])
    assert seen["cache"]["hits"] > 0 and seen["cache"]["misses"] > 0
    prefixes = {span[1].split(":")[0] for span in seen["spans"]}
    assert {"encode", "decode", "cache.hit", "restart", "gather-sink"} <= prefixes
    assert {"python", "jvm", "cross-language"} <= {
        span[1].split(":")[1] for span in seen["spans"] if span[1].startswith("decode:")
    }
    blob = json.dumps(seen, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
