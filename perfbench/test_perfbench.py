"""Tests of the benchmark itself (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from starbench import classifiers  # noqa: E402
from starbench.cli import main  # noqa: E402
from starbench.corpus import corpus_by_name  # noqa: E402
from starbench.descriptor import descriptor_hash  # noqa: E402
from starbench.dsl import parse_ring_expr  # noqa: E402

GOLDENS = checks.load_goldens(ROOT / "tests" / "goldens.json")
CLASSIFIERS = list(classifiers.PROPERTY_CLASSIFIERS)


def ring_hash(text):
    return descriptor_hash(parse_ring_expr(text))


def run_verb(item):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(item.full_argv())
    return code, buf.getvalue()


def checker(digests, corpus=corpus_by_name):
    return checks.Checker(GOLDENS, digests, ring_hash, corpus, CLASSIFIERS)


# ---- item lists -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_workload_asks_a_classifier_twice_about_one_ring(workload):
    asked = [
        (ring_hash(ring), prop)
        for item in workloads.items_for(workload, 0)
        for ring, prop in workloads.classifier_queries(item, corpus_by_name, CLASSIFIERS)
    ]
    assert len(asked) == len(set(asked))


@pytest.mark.skipif(
    not hasattr(classifiers, "_REPORT_CACHE"), reason="no classifier report cache"
)
@pytest.mark.parametrize("mode", ["rickart", "pqbaer"])
def test_declared_queries_are_what_the_verb_asks(mode):
    item = workloads.Item(("unitify", "Z(6)", "--K", "Z(6)", "--verify", mode), "verify-pass")
    classifiers._REPORT_CACHE.clear()
    run_verb(item)
    declared = {
        (ring_hash(r), p)
        for r, p in workloads.classifier_queries(item, corpus_by_name, CLASSIFIERS)
    }
    assert set(classifiers._REPORT_CACHE) == declared
    classifiers._REPORT_CACHE.clear()


def test_seed_permutes_verbs_and_nothing_else():
    one = workloads.items_for("unitify-corpus", 1)
    assert one == workloads.items_for("unitify-corpus", 1)
    two = workloads.items_for("unitify-corpus", 2)
    assert one != two
    assert sorted(one, key=lambda i: i.key) == sorted(two, key=lambda i: i.key)
    assert len({i.key for i in one}) == len(one)


# ---- checker ----------------------------------------------------------------

SMALL = ["Z(6)", "M(2, Z(3))"]
CHECK = workloads.Item(("check", "--corpus", "medium", "--all"), "check")


def check_stdout(blocks):
    return json.dumps(blocks, indent=2) + "\n"


@pytest.fixture(scope="module")
def small_check_blocks():
    blocks = []
    for ring in SMALL:
        _, out = run_verb(workloads.Item(("check", ring, "--all"), "check"))
        blocks.append(json.loads(out))
    return blocks


def test_checker_accepts_right_answers(small_check_blocks):
    out = check_stdout(small_check_blocks)
    c = checker({CHECK.key: checks.digest(out)}, corpus=lambda name: SMALL)
    c.check(CHECK, 0, out)
    assert (c.attempted, c.failed) == (len(SMALL) * len(CLASSIFIERS), 0)


def test_checker_flags_a_flipped_verdict(small_check_blocks):
    blocks = json.loads(json.dumps(small_check_blocks))
    rep = next(r for r in blocks[0]["reports"] if r["property"] == "baer-star")
    assert GOLDENS[(ring_hash(SMALL[0]), "verdict:baer-star")] == rep["verdict"]
    rep["verdict"] = not rep["verdict"]
    out = check_stdout(blocks)
    # the digest matches the tampered bytes, so only the golden can catch it
    c = checker({CHECK.key: checks.digest(out)}, corpus=lambda name: SMALL)
    c.check(CHECK, 0, out)
    assert c.failed == 1
    assert "golden" in c.problems[0]


def test_checker_flags_a_tampered_digest(small_check_blocks):
    out = check_stdout(small_check_blocks)
    c = checker({CHECK.key: checks.digest(out + " ")}, corpus=lambda name: SMALL)
    c.check(CHECK, 0, out)
    assert c.failed == c.attempted == len(SMALL) * len(CLASSIFIERS)
    assert "digest" in c.problems[0]


def test_checker_flags_a_missing_verdict(small_check_blocks):
    out = check_stdout(small_check_blocks[:1])
    c = checker({CHECK.key: checks.digest(out)}, corpus=lambda name: SMALL)
    c.check(CHECK, 0, out)
    assert c.failed == len(CLASSIFIERS)


def test_checker_applies_facts_goldens_and_exit_codes():
    negative = next(
        i for i in workloads.items_for("unitify-corpus", 0) if i.argv[1] == "sub(Z(9); 3)"
    )
    code, out = run_verb(negative)
    digests = {negative.key: checks.digest(out)}
    c = checker(digests)
    c.check(negative, code, out)
    assert c.failed == 0

    payload = json.loads(out)
    payload["injective"] = True
    bad = json.dumps(payload, indent=2) + "\n"
    c = checker({negative.key: checks.digest(bad)})
    c.check(negative, code, bad)
    assert c.failed == 1 and "injective" in c.problems[0]

    c = checker(digests)
    c.check(negative, 4, out)
    assert c.failed == 1 and "exit code" in c.problems[0]


# ---- tracer -----------------------------------------------------------------


def test_self_time_excludes_child_spans():
    rec = tracer.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(200000))
    (outer, o0, o1, _), (inner, i0, i1, parent) = rec.spans
    assert parent == 0
    times = rec.self_times()
    assert times["inner"] == pytest.approx(i1 - i0)
    assert times["outer"] == pytest.approx((o1 - o0) - (i1 - i0))


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: unit for name, (unit, _, _) in tracer.LAYER_METRICS.items()}
    assert tracer.CLASSIFIERS == tuple(CLASSIFIERS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
