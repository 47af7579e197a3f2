"""Frozen expected values for regression tests.

A golden entry pins one query about one ring (or algebra) to a JSON value,
keyed by the structural hash of the descriptor so a change to the descriptor
semantics invalidates the entry loudly instead of silently matching. The
store is a single sorted JSON file kept under version control; the seeding
script recomputes every value from scratch and refuses to overwrite an entry
with a different value unless told to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple


@dataclass
class GoldenStore:
    entries: Dict[Tuple[str, str], dict] = field(default_factory=dict)

    @staticmethod
    def load(path) -> "GoldenStore":
        path = Path(path)
        store = GoldenStore()
        if not path.exists():
            return store
        raw = json.loads(path.read_text())
        for row in raw.get("entries", []):
            store.entries[(row["hash"], row["query"])] = row
        return store

    def save(self, path) -> None:
        path = Path(path)
        rows = [self.entries[k] for k in sorted(self.entries)]
        payload = {"entries": rows}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def get(self, digest: str, query: str) -> Optional[Any]:
        row = self.entries.get((digest, query))
        return None if row is None else row["value"]

    def put(
        self,
        digest: str,
        query: str,
        value: Any,
        provenance: str,
        overwrite: bool = False,
    ) -> None:
        key = (digest, query)
        if key in self.entries and not overwrite:
            old = self.entries[key]["value"]
            if old != value:
                raise ValueError(
                    "golden conflict for %s/%s: stored %r, recomputed %r"
                    % (digest[:12], query, old, value)
                )
            return
        self.entries[key] = {
            "hash": digest,
            "query": query,
            "value": value,
            "provenance": provenance,
        }

    def __len__(self) -> int:
        return len(self.entries)
