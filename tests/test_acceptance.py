"""End-to-end gate: one test per numbered shipping criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s or in the
captured-output block) and enforces the stated runtime budget where one
exists. Everything here goes through the public surface, the CLI entry
point or the top-level package functions, except criterion 8's quotient
formula, which is read off the table that ``unitify --verify`` checks.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import oracles
from starbench import (
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
)
from starbench.classifiers import (
    PROPERTY_CLASSIFIERS,
    find_rp_not_central_cover,
    implication_reports_for,
    is_baer_star,
    is_pq_baer_star,
    is_proper_involution,
    is_rickart_star,
    is_semi_proper,
    is_weakly_rickart_star,
)
from starbench.cli import main
from starbench.config import DEFAULT_LIMITS
from starbench.corpus import corpus_by_name
from starbench.projections import RingScan
from starbench.unitify import (
    _formula_disagreements,
    _formula_table,
    build_quotient,
    describe_unitification,
    verify_unitification,
)

_RINGS = {}
_QUOTS = {}


def ring_of(text):
    if text not in _RINGS:
        _RINGS[text] = build_ring(parse_ring_expr(text))
    return _RINGS[text]


def quotient_of(ring_text, k_text, cap=None):
    key = (ring_text, k_text)
    if key not in _QUOTS:
        limits = DEFAULT_LIMITS.with_element_cap(cap) if cap else DEFAULT_LIMITS
        algebra = build_scalar_algebra(ring_of(ring_text), ring_of(k_text))
        _QUOTS[key] = build_quotient(algebra, limits)
    return _QUOTS[key]


@contextmanager
def criterion(number, detail, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("[FAIL] criterion %d: %s" % (number, detail))
        raise
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed >= budget:
        print("[FAIL] criterion %d: %s (%.1fs over %ds budget)" % (number, detail, elapsed, budget))
        raise AssertionError(
            "criterion %d exceeded its %ds budget: %.1fs" % (number, budget, elapsed)
        )
    print("[PASS] criterion %d (%.1fs): %s" % (number, elapsed, detail))


def cli_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_matrix_scan_truth_sets(capsys):
    with criterion(1, "arithmetic vs brute Baer* agreement on the matrix grid", budget=120):
        code, row_scan = cli_json(capsys, "scan-cor", "--n-max", "1", "--m-max", "12")
        assert code == 0
        assert row_scan["all_agree"] is True
        assert row_scan["truth_sets"]["1"] == [2, 3, 5, 6, 7, 10, 11]

        code, grid = cli_json(capsys, "scan-cor", "--n-max", "2", "--m-max", "7")
        assert code == 0
        assert grid["all_agree"] is True
        assert grid["truth_sets"]["2"] == [3, 7]


def test_criterion_2_rp_witness_on_m2z3():
    with criterion(2, "M(2,Z(3)) has an RP outside the central-cover image", budget=5):
        ring = ring_of("M(2, Z(3))")
        scan = RingScan(ring)
        x = find_rp_not_central_cover(ring, scan)
        assert x is not None
        e = int(scan.rp_all[x])
        covers = {int(c) for c in scan.cover_all}
        assert e not in covers
        assert is_baer_star(ring, scan).verdict
        assert is_rickart_star(ring, scan).verdict
        assert is_pq_baer_star(ring, scan).verdict


def test_criterion_3_rickart_mode_beyond_prior_hypotheses():
    with criterion(3, "rickart-mode unitification for Z(6)/Z(6) and M(2,Z(3))/Z(6)", budget=60):
        for ring_text, rows_expected in (("Z(6)", 6), ("M(2, Z(3))", 81)):
            algebra = build_scalar_algebra(ring_of(ring_text), ring_of("Z(6)"))
            report = verify_unitification(algebra, mode="rickart")
            assert report.verdict is True
            assert report.failures == []
            # outside both classical routes: K has zero divisors and the
            # module action has torsion
            assert "K-not-domain" in report.flags
            assert "torsion-present" in report.flags
            assert len(report.preservation) == rows_expected
            assert all(row["ok"] for row in report.preservation)


def test_criterion_4_pqbaer_mode():
    with criterion(4, "pqbaer-mode unitification for M(2,Z(3))/Z(3) and Z(6)/Z(6)", budget=60):
        for ring_text, k_text, rows_expected in (
            ("M(2, Z(3))", "Z(3)", 81),
            ("Z(6)", "Z(6)", 6),
        ):
            algebra = build_scalar_algebra(ring_of(ring_text), ring_of(k_text))
            report = verify_unitification(algebra, mode="pqbaer")
            assert report.verdict is True
            assert report.failures == []
            assert report.quotient_satisfies is True
            assert len(report.preservation) == rows_expected
            assert all(row["ok"] for row in report.preservation)


def _total_left_annihilator_trivial(ring):
    return not any(
        all(ring.mul(x, y) == 0 for y in range(ring.order))
        for x in range(1, ring.order)
    )


def test_criterion_5_unital_collapse_across_corpus():
    with criterion(5, "unital corpus rings collapse back to themselves"):
        checked = 0
        for text in corpus_by_name("medium"):
            ring = ring_of(text)
            if ring.unity is None or not _total_left_annihilator_trivial(ring):
                continue
            quot = quotient_of(text, "Z(%d)" % ring.characteristic, cap=20000)
            assert quot.ring.order == ring.order, text
            images = set(quot.embed_all().tolist())
            assert len(images) == ring.order, text
            checked += 1
        assert checked >= 39


def test_criterion_6_negative_controls():
    with criterion(6, "sub(Z(9);3) fails the involution gates and embeds non-injectively", budget=1):
        ring = ring_of("sub(Z(9); 3)")
        scan = RingScan(ring)
        assert is_proper_involution(ring, scan).verdict is False
        assert is_semi_proper(ring, scan).verdict is False
        wr = is_weakly_rickart_star(ring, scan)
        assert wr.verdict is False
        assert wr.witness["x"] == 3
        summary = describe_unitification(build_scalar_algebra(ring, ring_of("Z(9)")))
        assert summary["kernel_order"] == 9
        assert summary["quotient_order"] == 3
        assert summary["injective"] is False


def test_criterion_7_implication_suite_zero_violations():
    with criterion(7, "class-implication laws hold across the medium corpus", budget=600):
        texts = corpus_by_name("medium")
        reports = [rep for t in texts for rep in implication_reports_for(parse_ring_expr(t))]
        assert len(reports) == 7 * len(texts)
        violations = [r for r in reports if not r.verdict]
        assert violations == []


def test_criterion_8_projection_identities():
    with criterion(8, "rp/star identities and the quotient RP formula agree with brute force"):
        # rp(x) = rp(x* x) wherever the involution is proper
        proper_rings = 0
        for text in corpus_by_name("medium"):
            ring = ring_of(text)
            scan = RingScan(ring)
            if not is_proper_involution(ring, scan).verdict:
                continue
            proper_rings += 1
            for x in range(ring.order):
                assert scan.rp_all[x] != -1, (text, x)
                x_star_x = ring.mul(ring.star(x), x)
                assert scan.rp_all[x_star_x] == scan.rp_all[x], (text, x)
        assert proper_rings >= 20

        # lp(x) = (rp(x*))* with matching defined-ness, proper or not
        for text in corpus_by_name("medium"):
            ring = ring_of(text)
            scan = RingScan(ring)
            for x in range(ring.order):
                mirrored = scan.rp_all[ring.star(x)]
                assert (scan.lp_all[x] == -1) == (mirrored == -1), (text, x)
                if mirrored != -1:
                    assert int(scan.lp_all[x]) == ring.star(int(mirrored)), (text, x)

        # the closed-form RP in each theorem quotient matches a definition scan
        for ring_text, k_text in (
            ("Z(6)", "Z(6)"),
            ("M(2, Z(3))", "Z(6)"),
            ("M(2, Z(3))", "Z(3)"),
            ("sub(Z(9); 3)", "Z(9)"),
        ):
            quot = quotient_of(ring_text, k_text)
            q = quot.ring.tabled()
            qscan, rscan = RingScan(q), RingScan(quot.algebra.ring)
            assert quot.proper  # so rp(c) = rp(c* c) names the formula's coset
            targets = [c if q.star(c) == c else q.mul(q.star(c), c) for c in range(q.order)]
            formula = _formula_table(quot, np.array(targets, dtype=np.int64), rscan, central=False)
            brute = [oracles.o_rp(q, c) for c in range(q.order)]
            assert formula.tolist() == brute, (ring_text, k_text)
            assert not _formula_disagreements(quot, qscan, rscan, central=False).any()


def test_criterion_9_parallel_determinism(capsys):
    with criterion(9, "job-count never changes the bytes of a JSON report"):
        for argv in (
            ["check", "--corpus", "small", "baer-star", "--format", "json"],
            ["scan-cor", "--n-max", "2", "--m-max", "7", "--format", "json"],
        ):
            main(argv + ["--jobs", "1"])
            one = capsys.readouterr().out
            main(argv + ["--jobs", "8"])
            eight = capsys.readouterr().out
            assert one == eight, argv
