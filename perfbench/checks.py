"""Judge each verb's exit code and stdout.

An answer is one classifier verdict of a ``check`` verb, or the whole
result of any other verb. Each answer is checked against

* the goldens in ``tests/goldens.json`` wherever one exists for it,
* the acceptance facts of its kind (see ``workloads.EXIT_CODES``),

and each verb's exit code and the SHA-256 of its stdout bytes are compared
with the values expected for it; the digests were recorded at the commit that
added the benchmark (``digests.json``). A verb-level mismatch fails every
answer of that verb.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Sequence, Tuple

from workloads import EXIT_CODES, Item, classifier_queries

Goldens = Dict[Tuple[str, str], Any]


def load_goldens(path) -> Goldens:
    with open(path) as fh:
        rows = json.load(fh)["entries"]
    return {(row["hash"], row["query"]): row["value"] for row in rows}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


class Checker:
    """Counts attempted and failed answers over any number of verbs.

    ``ring_hash`` maps descriptor text to the hash the goldens are keyed by;
    ``corpus`` and ``classifiers`` say which verdicts a ``check`` verb owes.
    """

    def __init__(
        self,
        goldens: Goldens,
        digests: Dict[str, str],
        ring_hash: Callable[[str], str],
        corpus: Callable[[str], List[str]],
        classifiers: Sequence[str],
    ):
        self.goldens = goldens
        self.digests = digests
        self.ring_hash = ring_hash
        self.corpus = corpus
        self.classifiers = classifiers
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, item: Item, code: Any, stdout: str) -> None:
        verb_problems = []
        if code != EXIT_CODES[item.kind]:
            verb_problems.append("exit code %r, expected %d" % (code, EXIT_CODES[item.kind]))
        if self.digests.get(item.key) != digest(stdout):
            verb_problems.append("stdout digest differs from the recorded one")
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = None
            verb_problems.append("stdout is not JSON")
        if item.kind == "check":
            answers = self._check_answers(item, payload)
        else:
            answers = {item.key: self._verb_answer(item, payload)}
        for label, problems in answers.items():
            problems = verb_problems + problems
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append("%s: %s" % (label, "; ".join(problems)))

    def _golden(self, ring_text: str, query: str) -> Any:
        return self.goldens.get((self.ring_hash(ring_text), query))

    def _check_answers(self, item: Item, payload: Any) -> Dict[str, List[str]]:
        got: Dict[Tuple[str, str], Any] = {}
        try:
            for block in payload:
                h = self.ring_hash(block["ring"])
                for rep in block["reports"]:
                    got[(h, rep["property"])] = rep["verdict"]
        except (KeyError, TypeError):
            got = {}
        answers = {}
        for ring, prop in classifier_queries(item, self.corpus, self.classifiers):
            problems = []
            verdict = got.get((self.ring_hash(ring), prop))
            golden = self._golden(ring, "verdict:%s" % prop)
            if verdict is None:
                problems.append("no verdict")
            elif golden is not None and verdict != golden:
                problems.append("verdict %r, golden %r" % (verdict, golden))
            answers["%s :: %s" % (ring, prop)] = problems
        return answers

    def _verb_answer(self, item: Item, payload: Any) -> List[str]:
        if not isinstance(payload, dict):
            return ["no payload"]
        if item.kind == "gate-refused":
            return [] if "error" in payload else ["no error payload"]
        if item.kind == "validate":
            ok = payload.get("validation", {}).get("ok")
            return [] if ok is True else ["validation ok is %r" % (ok,)]
        ring, scalars = item.argv[1], item.argv[3]
        facts = list(item.facts)
        if item.kind == "collapse":
            facts += [("quotient_order", self._golden(ring, "order")), ("injective", True)]
        elif item.kind == "verify-pass":
            facts += [("verdict", True), ("failures", [])]
        for field, query in (
            ("kernel_order", "kernel-order"),
            ("quotient_order", "quotient-order"),
            ("injective", "embedding-injective"),
        ):
            golden = self._golden(ring, "unitify:%s:%s" % (scalars, query))
            if golden is not None:
                facts.append((field, golden))
        problems = []
        for field, expected in facts:
            if expected is None or payload.get(field) != expected:
                problems.append("%s is %r, expected %r" % (field, payload.get(field), expected))
        return problems
