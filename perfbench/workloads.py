"""The verb lists of the three benchmark workloads.

Each workload is a list of CLI verbs that one fresh interpreter runs in
turn through ``starbench.cli.main``. An item carries its argv (without the
common flags) and the kind of answer it gives, which decides how
``checks.py`` judges its output.

The lists are plain data so that the benchmark's tests can assert, without
running anything, that no workload asks the same classifier about the same
descriptor twice: the classifier report cache then never answers a later
verb from an earlier one, just as it never does for a user who runs one
process per verb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

COMMON_FLAGS = ("--format", "json", "--jobs", "1")

# Answer kinds and the exit code each one must give:
#   check         classifier verdicts, compared with the goldens
#   collapse      unitify of a unital ring: the quotient is R again
#   construct     unitify without gates: ``facts`` and the goldens
#   verify-pass   unitify --verify that must pass
#   gate-refused  unitify --verify whose hypothesis gate refuses R
#   validate      describe --validate: every axiom holds
EXIT_CODES = {
    "check": 0,
    "collapse": 0,
    "construct": 0,
    "verify-pass": 0,
    "gate-refused": 4,
    "validate": 0,
}


@dataclass(frozen=True)
class Item:
    argv: Tuple[str, ...]
    kind: str
    # (JSON field, expected value) pairs the verb's payload must have
    facts: Tuple[Tuple[str, object], ...] = ()

    @property
    def key(self) -> str:
        """Stable name of the verb, used to look up its recorded digest."""
        return " ".join(self.argv)

    def full_argv(self) -> List[str]:
        return list(self.argv) + list(COMMON_FLAGS)


# Medium-corpus rings that are unital with a trivial total left annihilator,
# as (ring, characteristic); the 39 rings of acceptance criterion 5 minus
# M(2, Z(7)), which alone takes about 35 s to unitify.
COLLAPSE_RINGS: Tuple[Tuple[str, int], ...] = tuple(
    ("Z(%d)" % m, m) for m in range(2, 31)
) + (
    ("sub(Z(6); 2)", 3),
    ("prod(Z(2), Z(2))", 2),
    ("prod(Z(2), Z(3))", 6),
    ("prod(Z(3), Z(3))", 3),
    ("M(2, Z(2))", 2),
    ("M(2, Z(3))", 3),
    ("M(2, Z(4))", 4),
    ("M(2, Z(5))", 5),
    ("M(2, Z(6))", 6),
)

# The negative control of acceptance criterion 6, and the one remaining
# configuration with unitify goldens.
CONSTRUCTIONS = (
    ("sub(Z(9); 3)", "Z(9)", (("kernel_order", 9), ("quotient_order", 3), ("injective", False))),
    ("sub(Z(4); 2)", "Z(2)", ()),
)

VERIFY_PASSING = (
    ("Z(6)", "Z(6)", "rickart"),
    ("Z(6)", "Z(6)", "pqbaer"),
    ("M(2, Z(3))", "Z(6)", "rickart"),
    ("M(2, Z(3))", "Z(3)", "pqbaer"),
    ("M(2, Z(5))", "Z(5)", "pqbaer"),
    ("M(2, Z(6))", "Z(6)", "pqbaer"),
)

VERIFY_REFUSED = (
    ("M(2, Z(5))", "Z(5)", "rickart"),
    ("M(2, Z(6))", "Z(6)", "rickart"),
)

VALIDATE_RINGS = (
    "M(2, Z(3))",
    "M(2, Z(4))",
    "M(2, Z(5))",
    "prod(Z(3), Z(3))",
    "Z(30)",
)


def _unitify(ring: str, k: str, kind: str, mode: str = "", facts=()) -> Item:
    argv: Tuple[str, ...] = ("unitify", ring, "--K", k)
    if mode:
        argv += ("--verify", mode)
    return Item(argv, kind, facts)


def _classify_medium() -> List[Item]:
    return [Item(("check", "--corpus", "medium", "--all"), "check")]


def _unitify_corpus() -> List[Item]:
    items = [_unitify(r, "Z(%d)" % m, "collapse") for r, m in COLLAPSE_RINGS]
    items += [_unitify(r, k, "construct", facts=f) for r, k, f in CONSTRUCTIONS]
    items += [_unitify(r, k, "verify-pass", mode) for r, k, mode in VERIFY_PASSING]
    items += [_unitify(r, k, "gate-refused", mode) for r, k, mode in VERIFY_REFUSED]
    return items


def _validate_axioms() -> List[Item]:
    return [Item(("describe", r, "--validate"), "validate") for r in VALIDATE_RINGS]


WORKLOADS = {
    "classify-medium": _classify_medium,
    "unitify-corpus": _unitify_corpus,
    "validate-axioms": _validate_axioms,
}


def items_for(workload: str, seed: int) -> List[Item]:
    """The verbs of a workload, in the order the seed gives."""
    items = WORKLOADS[workload]()
    random.Random(seed).shuffle(items)
    return items


# Gate classifiers that verify_unitification runs on R, by mode.
_VERIFY_GATES = {
    "rickart": ("weakly-rickart-star", "proper"),
    "pqbaer": ("weakly-pq-baer-star", "semi-proper"),
}


def classifier_queries(
    item: Item, corpus: Callable[[str], List[str]], classifiers: Sequence[str]
) -> List[Tuple[str, str]]:
    """The (descriptor text, classifier) pairs a verb asks of the report cache.

    ``corpus`` maps a corpus name to its descriptor texts and
    ``classifiers`` lists every classifier name. Quotient rings have no
    descriptor and never reach the cache, so they are not listed. A refused
    gate stops after its first classifier; listing the second as well only
    makes the uniqueness test stricter.
    """
    argv = item.argv
    if argv[0] == "check":
        if "--corpus" not in argv or "--all" not in argv:
            raise ValueError("only 'check --corpus NAME --all' is modelled: %r" % (argv,))
        rings = corpus(argv[argv.index("--corpus") + 1])
        return [(r, p) for r in rings for p in classifiers]
    if argv[0] == "unitify" and "--verify" in argv:
        mode = argv[argv.index("--verify") + 1]
        return [(argv[1], p) for p in _VERIFY_GATES[mode]]
    return []
