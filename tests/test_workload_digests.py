"""The output contract of the benchmark's verbs, as a test.

Every verb of the three perfbench workloads (``workloads.items_for(w, 1)``)
runs in-process through ``starbench.cli.main``. Its exit code must be the
one its kind owes (``workloads.EXIT_CODES``) and the SHA-256 of its stdout
the one recorded in ``perfbench/digests.json``, so that a change in any
output byte fails here, not only as a drop in the benchmark's
``ops_ok_frac``. The test only reads ``perfbench/``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from starbench.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
ITEMS = [
    pytest.param(item, id="%s: %s" % (name, item.key))
    for name in sorted(workloads.WORKLOADS)
    for item in workloads.items_for(name, 1)
]


def test_every_verb_has_a_recorded_digest():
    assert len(ITEMS) == 54
    assert {p.values[0].key for p in ITEMS} <= set(DIGESTS)


@pytest.mark.parametrize("item", ITEMS)
def test_exit_code_and_stdout_digest(item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(item.full_argv())
    assert code == checks.EXIT_CODES[item.kind]
    assert checks.digest(out.getvalue()) == DIGESTS[item.key]
