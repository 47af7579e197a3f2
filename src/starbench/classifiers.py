"""Classifiers: structural predicates on *-rings, as timed reports.

Every classifier is a ``check(ring, scan) -> (verdict, witness)`` under
one decorator, :func:`_verdict`, which names the property, builds a scan
when none is passed, times the call and registers it in
PROPERTY_CLASSIFIERS; what callers get is ``(ring, scan=None) ->``
:class:`PropertyReport`. Checks scan elements in ascending index order,
so the reported witness is always the lowest-index one. A shared
:class:`~starbench.projections.RingScan` makes repeated classification of
one ring cheap: its bitsets, r(aR) for every a, projection tables and
annihilator memos (``r_of``) are computed once per ring.

Definitions implemented (R a finite *-ring, r/l one-sided annihilators):

* proper involution: x*x = 0 implies x = 0.
* semi-proper: x R x* = 0 implies x = 0.
* reduced: x^2 = 0 implies x = 0. abelian: idempotents are central.
* Rickart*: r({x}) = eR for a projection e, for every x.
* weakly Rickart*: every x has a right projection RP(x).
* Baer*: r(S) = eR for every subset S.
* quasi-Baer*: r(I) = eR for every two-sided ideal I.
* p.q.-Baer*: r(aR) = eR and l(Ra) = Rf (projections e, f), for every a.
* weakly p.q.-Baer*: every x has a central cover C(x) and
  xRy = 0 iff C(x)y = 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .annihilators import annihilator_family, principal_two_sided_ideal
from .bitsets import contains
from .config import DEFAULT_LIMITS, Limits
from .descriptor import Descriptor, to_dsl
from .errors import VerificationFailed
from .projections import RingScan, r_of_principal_ideals
from .rings import StarRing, build_ring


@dataclass(frozen=True)
class PropertyReport:
    ring: str
    prop: str
    verdict: bool
    witness: Optional[Any]
    micros: int

    def to_json(self, include_timings: bool = False) -> dict:
        out: Dict[str, Any] = {
            "ring": self.ring,
            "property": self.prop,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if include_timings:
            out["micros"] = self.micros
        return out


Verdict = Tuple[bool, Optional[Any]]
Check = Callable[[StarRing, RingScan], Verdict]

# property name -> classifier, in the order of definition below, which is
# the order of ``check --all``
PROPERTY_CLASSIFIERS: Dict[str, Callable[..., PropertyReport]] = {}


def _verdict(prop: str) -> Callable[[Check], Callable[..., PropertyReport]]:
    """Make ``check(ring, scan) -> (verdict, witness)`` the classifier of
    ``prop``: ``(ring, scan=None) -> PropertyReport``, with a fresh scan
    when none is passed and the call timed into ``micros``. It is
    registered in PROPERTY_CLASSIFIERS under ``prop``."""

    def classifier(check: Check) -> Callable[..., PropertyReport]:
        @wraps(check)
        def report(ring: StarRing, scan: Optional[RingScan] = None) -> PropertyReport:
            t0 = time.perf_counter_ns()
            verdict, witness = check(ring, scan or RingScan(ring))
            micros = (time.perf_counter_ns() - t0) // 1000
            return PropertyReport(ring.label, prop, verdict, witness, int(micros))

        PROPERTY_CLASSIFIERS[prop] = report
        return report

    return classifier


@_verdict("proper")
def is_proper_involution(ring: StarRing, scan: RingScan) -> Verdict:
    idx = np.arange(ring.order, dtype=np.int64)
    diag = ring.mul_pairs(ring.star_vector(), idx)  # x* x
    bad = np.flatnonzero((diag == 0) & (idx != 0))
    if len(bad):
        return False, {"x": ring.decode(int(bad[0]))}
    return True, None


@_verdict("semi-proper")
def is_semi_proper(ring: StarRing, scan: RingScan) -> Verdict:
    """x R x* = 0 exactly when x* lies in r(xR), read off the shared
    scan's ``r_of_aR`` (from the additive generators)."""
    star = ring.star_vector()
    r_of_aR = scan.r_of_aR
    for x in range(1, ring.order):
        if contains(r_of_aR[x], int(star[x])):
            return False, {"x": ring.decode(x)}
    return True, None


@_verdict("reduced")
def is_reduced(ring: StarRing, scan: RingScan) -> Verdict:
    idx = np.arange(ring.order, dtype=np.int64)
    squares = ring.mul_pairs(idx, idx)
    bad = np.flatnonzero((squares == 0) & (idx != 0))
    if len(bad):
        return False, {"x": ring.decode(int(bad[0]))}
    return True, None


@_verdict("abelian")
def is_abelian(ring: StarRing, scan: RingScan) -> Verdict:
    """An idempotent is central iff it commutes with every additive
    generator g (then, by distributivity, with every sum of them), so the
    idempotents are tested against G in one grid; only the first that
    fails has its row and column read, for the lowest witness."""
    idx = np.arange(ring.order, dtype=np.int64)
    idems = np.flatnonzero(ring.mul_pairs(idx, idx) == idx)[:, None]
    g = np.array(ring.generators, dtype=np.int64)
    noncentral = (ring.mul_pairs(idems, g) != ring.mul_pairs(g, idems)).any(axis=1)
    if not noncentral.any():
        return True, None
    e = int(idems[noncentral.argmax(), 0])
    y = int(np.argmax(ring.mul_row(e) != ring.mul_col(e)))
    return False, {"idempotent": ring.decode(e), "witness": ring.decode(y)}


@_verdict("unity")
def has_unity(ring: StarRing, scan: RingScan) -> Verdict:
    if ring.unity is None:
        return False, None
    return True, {"unity": ring.decode(ring.unity)}


@_verdict("rickart-star")
def is_rickart_star(ring: StarRing, scan: RingScan) -> Verdict:
    for x in range(ring.order):
        if scan.rann[x] not in scan.eR_by_mask:
            return False, {"x": ring.decode(x)}
    return True, None


@_verdict("weakly-rickart-star")
def is_weakly_rickart_star(ring: StarRing, scan: RingScan) -> Verdict:
    bad = np.flatnonzero(scan.rp_all < 0)
    if len(bad):
        return False, {"x": ring.decode(int(bad[0])), "reason": "none"}
    return True, None


@_verdict("baer-star")
def is_baer_star(ring: StarRing, scan: RingScan) -> Verdict:
    for member in annihilator_family(ring, "subset", scan=scan):
        if member.mask not in scan.eR_by_mask:
            return False, {
                "generators": [ring.decode(g) for g in member.generators],
                "annihilator_size": member.count(),
            }
    return True, None


@_verdict("quasi-baer-star")
def is_quasi_baer_star(ring: StarRing, scan: RingScan) -> Verdict:
    for member in annihilator_family(ring, "two-sided-ideal", scan=scan):
        if member.mask not in scan.eR_by_mask:
            return False, {
                "ideal_generators": [ring.decode(g) for g in member.generators],
                "annihilator_size": member.count(),
            }
    return True, None


@_verdict("pq-baer-star")
def is_pq_baer_star(ring: StarRing, scan: RingScan) -> Verdict:
    """Both clauses are checked for every a: r(aR) = eR and l(Ra) = Rf;
    the witness is the first a, ascending, where one fails, and names the
    side, right first. r(aR) is the scan's ``r_of_aR``, and the left clause
    at a is the right clause at a*: (y r a)* = a* r* y*, so
    l(Ra) = {y : y* in r(a*R)}, and Rf = (fR)* for a projection f, so
    l(Ra) = Rf iff r(a*R) = fR."""
    right = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    star = ring.star_vector().tolist()
    for a, right_fails in enumerate(right):
        if right_fails:
            return False, {"a": ring.decode(a), "side": "right"}
        if right[star[a]]:
            return False, {"a": ring.decode(a), "side": "left"}
    return True, None


@_verdict("weakly-pq-baer-star")
def is_weakly_pq_baer_star(ring: StarRing, scan: RingScan) -> Verdict:
    """Every x has a central cover C(x) with xRy = 0 iff C(x)y = 0.

    Nothing more is checked: the symmetry xRy = 0 iff yRx = 0 follows.
    xRy = 0 gives C(x)y = 0, and then yrx = yrC(x)x = C(x)yrx = 0 for
    every r, as x = C(x)x and C(x) is central. ``tests/test_classifiers.py``
    checks it on the corpora and on drawn subrings.
    """
    masks = scan.r_of_aR  # masks[x] = {y : xRy = 0}
    for x, cover in enumerate(scan.cover_all.tolist()):
        if cover < 0:
            return False, {"x": ring.decode(x), "reason": "no-central-cover"}
        if masks[x] != scan.rann[cover]:
            return False, {"x": ring.decode(x), "reason": "biconditional"}
    return True, None


def square_free(m: int) -> bool:
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


def prime_factors(m: int) -> List[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def classify_matrix_ring(n: int, m: int) -> bool:
    """Arithmetic verdict: is the ring of n-by-n matrices over Z(m) Baer*
    under the transpose involution?

    n = 1: exactly when m is square-free. n = 2: m square-free with every
    prime factor congruent to 3 mod 4 (so that -1 is not a sum of two
    squares mod p). n >= 3: never (for m >= 2).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m == 1:
        return True  # the one-element ring
    if n == 1:
        return square_free(m)
    if n == 2:
        return square_free(m) and all(p % 4 == 3 for p in prime_factors(m))
    return False


def find_rp_not_central_cover(
    ring: StarRing, scan: Optional[RingScan] = None
) -> Optional[int]:
    """Lowest-index x whose RP(x) is not the central cover of any element.

    Returns None when every right projection arises as some central cover
    (or when no x has an RP at all).
    """
    scan = scan or RingScan(ring)
    covers = {int(c) for c in scan.cover_all if c >= 0}
    for x in range(ring.order):
        e = int(scan.rp_all[x])
        if e >= 0 and e not in covers:
            return x
    return None


@_verdict("rp-not-cover")
def rp_not_central_cover_report(ring: StarRing, scan: RingScan) -> Verdict:
    x = find_rp_not_central_cover(ring, scan)
    if x is None:
        return False, None
    return True, {"x": ring.decode(x), "rp": ring.decode(int(scan.rp_all[x]))}


IMPLICATIONS: Tuple[Tuple[str, Callable[[Dict[str, bool]], bool]], ...] = (
    (
        "rickart-iff-weakly-rickart-with-unity",
        lambda v: v["rickart-star"] == (v["weakly-rickart-star"] and v["unity"]),
    ),
    (
        "pq-baer-iff-weakly-pq-baer-with-unity",
        lambda v: v["pq-baer-star"] == (v["weakly-pq-baer-star"] and v["unity"]),
    ),
    (
        "rickart-implies-proper-unital",
        lambda v: (not v["rickart-star"]) or (v["proper"] and v["unity"]),
    ),
    (
        "pq-baer-implies-semi-proper-unital",
        lambda v: (not v["pq-baer-star"]) or (v["semi-proper"] and v["unity"]),
    ),
    (
        "abelian-rickart-implies-pq-baer",
        lambda v: (not (v["abelian"] and v["rickart-star"])) or v["pq-baer-star"],
    ),
    (
        "reduced-pq-baer-implies-rickart",
        lambda v: (not (v["reduced"] and v["pq-baer-star"])) or v["rickart-star"],
    ),
    (
        "finite-collapse-rickart-iff-baer",
        lambda v: v["rickart-star"] == v["baer-star"],
    ),
)


def implication_reports_for(
    d: Descriptor, limits: Limits = DEFAULT_LIMITS
) -> List[PropertyReport]:
    """All implication laws evaluated on one ring; failures carry the full
    verdict table as the witness so the offending combination is
    inspectable."""
    ring = build_ring(d, limits)
    scan = RingScan(ring)
    t0 = time.perf_counter_ns()
    verdicts = {
        name: fn(ring, scan).verdict
        for name, fn in PROPERTY_CLASSIFIERS.items()
        if name != "rp-not-cover"
    }
    out: List[PropertyReport] = []
    for name, law in IMPLICATIONS:
        holds = law(verdicts)
        witness = None if holds else dict(sorted(verdicts.items()))
        micros = (time.perf_counter_ns() - t0) // 1000
        out.append(
            PropertyReport(to_dsl(d), "implication:%s" % name, holds, witness, int(micros))
        )
    return out


def ideal_annihilator_crosscheck(ring: StarRing, scan: Optional[RingScan] = None) -> bool:
    """Definitional route vs the family's route for r((a)), every a.

    The quasi-Baer* family takes r((a)) from ``r_of_principal_ideals``,
    r({a}) meet r(aR), with r(aR) read off the additive generators; this builds the literal two-sided ideal (a) by additive
    closure and compares its annihilator. Used by tests and ``verify
    crosscheck``; raises on divergence.
    """
    scan = scan or RingScan(ring)
    family_route = r_of_principal_ideals(scan)
    for a in range(ring.order):
        if scan.r_of(principal_two_sided_ideal(ring, a)) != family_route[a]:
            raise VerificationFailed("ideal-annihilator-shortcut", (ring.decode(a),))
    return True
