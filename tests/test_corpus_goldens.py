"""The frozen-value regression layer.

tests/goldens.json was produced by scripts/seed_goldens.py, which derives
every value from the reference code in oracles.py. Here the fast
implementation replays each stored query; any drift in construction,
hashing, or classification shows up as a value conflict.
"""

import json
from pathlib import Path

import pytest

from starbench import (
    GoldenStore,
    build_ring,
    build_scalar_algebra,
    descriptor_hash,
    parse_ring_expr,
)
from starbench.classifiers import PROPERTY_CLASSIFIERS
from starbench.corpus import corpus_by_name
from starbench.projections import RingScan
from starbench.unitify import build_quotient

GOLDEN_PATH = Path(__file__).parent / "goldens.json"


class TestStore:
    def test_round_trip(self, tmp_path):
        store = GoldenStore()
        store.put("a" * 64, "order", 6, "derived:enumeration")
        store.put("b" * 64, "verdict:proper", True, "derived:witness-scan")
        path = tmp_path / "g.json"
        store.save(path)
        back = GoldenStore.load(path)
        assert len(back) == 2
        assert back.get("a" * 64, "order") == 6
        assert back.get("b" * 64, "verdict:proper") is True

    def test_missing_file_loads_empty(self, tmp_path):
        store = GoldenStore.load(tmp_path / "absent.json")
        assert len(store) == 0
        assert store.get("a" * 64, "order") is None

    def test_conflicting_put_raises(self):
        store = GoldenStore()
        store.put("a" * 64, "order", 6, "derived:enumeration")
        with pytest.raises(ValueError, match="golden conflict"):
            store.put("a" * 64, "order", 7, "derived:enumeration")

    def test_identical_put_is_silent(self):
        store = GoldenStore()
        store.put("a" * 64, "order", 6, "derived:enumeration")
        store.put("a" * 64, "order", 6, "derived:enumeration")
        assert len(store) == 1

    def test_overwrite_flag_replaces(self):
        store = GoldenStore()
        store.put("a" * 64, "order", 6, "derived:enumeration")
        store.put("a" * 64, "order", 7, "derived:enumeration", overwrite=True)
        assert store.get("a" * 64, "order") == 7

    def test_file_is_sorted_and_flat(self, tmp_path):
        store = GoldenStore()
        store.put("b" * 64, "order", 8, "p")
        store.put("a" * 64, "order", 6, "p")
        path = tmp_path / "g.json"
        store.save(path)
        raw = json.loads(path.read_text())
        assert list(raw) == ["entries"]
        hashes = [row["hash"] for row in raw["entries"]]
        assert hashes == sorted(hashes)
        assert set(raw["entries"][0]) == {"hash", "query", "value", "provenance"}


class TestCorpusProfiles:
    def test_all_cyclic_is_exactly_z2_to_z30(self):
        assert corpus_by_name("all-cyclic") == ["Z(%d)" % m for m in range(2, 31)]

    def test_medium_extends_small(self):
        assert set(corpus_by_name("small")) < set(corpus_by_name("medium"))

    @pytest.mark.parametrize("name,cap", [("small", 256), ("medium", 2500)])
    def test_order_caps(self, name, cap):
        for text in corpus_by_name(name):
            ring = build_ring(parse_ring_expr(text))
            assert ring.order <= cap, text

    @pytest.mark.parametrize("name", ["small", "medium", "all-cyclic"])
    def test_duplicate_free_by_hash(self, name):
        hashes = [descriptor_hash(parse_ring_expr(t)) for t in corpus_by_name(name)]
        assert len(set(hashes)) == len(hashes)

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            corpus_by_name("gigantic")


def _load_goldens():
    assert GOLDEN_PATH.exists(), "run scripts/seed_goldens.py first"
    return GoldenStore.load(GOLDEN_PATH)


def _rows_of(store, digest):
    """The store's rows about one descriptor, by query."""
    return [row for (h, _), row in sorted(store.entries.items()) if h == digest]


def _replay_value(ring, scan, algebras, query):
    if query == "order":
        return ring.order
    if query == "characteristic":
        return ring.characteristic
    if query == "projection-count":
        return len(scan.poset.indices)
    if query == "central-projection-count":
        return int(scan.poset.central_flags.sum())
    if query.startswith("verdict:"):
        prop = query.split(":", 1)[1]
        return PROPERTY_CLASSIFIERS[prop](ring, scan).verdict
    if query.startswith("unitify:"):
        _, k_text, field = query.split(":")
        if k_text not in algebras:
            scalars = build_ring(parse_ring_expr(k_text))
            algebras[k_text] = build_quotient(build_scalar_algebra(ring, scalars))
        quot = algebras[k_text]
        if field == "kernel-order":
            return quot.kernel.size
        if field == "quotient-order":
            return quot.ring.order
        if field == "embedding-injective":
            embedded = {quot.coset_of_pair[a * quot.algebra.scalars.order] for a in range(ring.order)}
            return len(embedded) == ring.order
    raise AssertionError("unknown golden query %r" % query)


class TestReplay:
    def test_every_stored_value_reproduced(self):
        store = _load_goldens()
        assert len(store) > 500
        by_hash = {}
        for text in corpus_by_name("medium"):
            by_hash[descriptor_hash(parse_ring_expr(text))] = text
        mismatches = []
        replayed = 0
        for digest, text in by_hash.items():
            rows = _rows_of(store, digest)
            assert rows, "no goldens for %s" % text
            ring = build_ring(parse_ring_expr(text))
            scan = RingScan(ring)
            algebras = {}
            for row in rows:
                got = _replay_value(ring, scan, algebras, row["query"])
                if got != row["value"]:
                    mismatches.append((text, row["query"], row["value"], got))
                replayed += 1
        assert not mismatches, mismatches
        assert replayed == len(store)

    def test_every_medium_ring_has_core_queries(self):
        store = _load_goldens()
        core = {
            "order",
            "characteristic",
            "projection-count",
            "central-projection-count",
            "verdict:proper",
            "verdict:rickart-star",
        }
        for text in corpus_by_name("medium"):
            digest = descriptor_hash(parse_ring_expr(text))
            queries = {r["query"] for r in _rows_of(store, digest)}
            assert core <= queries, text

    def test_provenance_values_are_labelled(self):
        store = _load_goldens()
        for row in store.entries.values():
            assert row["provenance"].startswith("derived:")
