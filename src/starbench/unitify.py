"""Unit adjunction for *-rings over a scalar *-ring.

Given a scalar algebra (K acting on R), the pair ring consists of all (a, lam)
with

    (a, lam) + (b, mu) = (a + b, lam + mu)
    (a, lam) (b, mu)   = (ab + mu.a + lam.b, lam mu)
    (a, lam)*          = (a*, lam*)

It is unital with unity (0, 1). The kernel ideal

    N = {(a, lam) : a x + lam.x = 0 for every x in R}

collects the pairs that act as zero on R; the quotient of the pair ring by N
is the unitified ring, written here with cosets [a, lam]. The canonical coset
representative is the member with the least pair index (pair index =
a_index * |K| + lam_index), so [0, 1] names the unity.

Nothing is sampled, and the only premise is the *-ring laws of R and K,
which every StarRing obeys, and the action axioms that
build_scalar_algebra proves. The action is additive in the element, so
x -> a x + lam.x is additive for every pair (a, lam) and is fixed by its
values on R's additive generators G. Two pairs share a coset exactly
when they act alike on R, so compute_kernel_N reads every pair's coset
off its signature, the row (a g + lam.g) over g in G, and takes each
pair's representative from one stable sort of the signatures; N is the
coset of 0, kept as flags over the pair indices (KernelN.flags), which
build_quotient reads to check that N* = N.
The action axioms make N an ideal of the pair ring (the proof is
compute_kernel_N's), so nothing checks that again. With N an ideal,
N* = N and each representative the least member of its coset, the
quotient's +, product and involution are well defined on every coset
pair by construction (the proof is build_quotient's), so nothing audits
the cosets either. The pair ring and the quotient are *-rings, so the
quotient's scans read its left side off the right one at the adjoint
(projections.RingScan). verify_unitification, which
scans every row of the quotient, then reads it from a tabled twin
(StarRing.tabled) when its order squared is within the table threshold:
its + is associative and right distributive, so one row of each table per
additive generator and gathers give the rest
(rings._tables_along_generators). describe_unitification scans no row,
and builds no table.

The map a -> [a, 0] is a *-homomorphism, injective exactly when
L(R) = {x : xR = 0} vanishes. Projection formulas in the quotient:

* [a, 0] has right projection [rp(a), 0];
* a self-adjoint coset with canonical representative (a, lam), lam != 0, has
  right projection [-g, 1] where g is the greatest projection satisfying
  a g = (-lam).g;
* the same shape computes central covers with g ranging over central
  projections.

Every formula result is compared against an exhaustive definition-level
search in the quotient. verify_unitification makes that comparison for
every coset in one pass: _formula_table computes the formula for an array
of cosets (a gather from R's scan table where lam = 0, one mul_pairs grid
and one poset extremum where lam != 0), and _formula_disagreements
compares it with the quotient scan's rp_all or cover_all as arrays.
_formula_failure reads the first coset that disagrees off the same
arrays: the error of the search that found nothing there, or
FormulaMismatch, rather than trusting either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .algebra import ScalarAlgebra, first_zero_divisor
from .bitsets import first_positions, flags_of
from .classifiers import (
    is_pq_baer_star,
    is_proper_involution,
    is_rickart_star,
    is_semi_proper,
    is_weakly_pq_baer_star,
    is_weakly_rickart_star,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import (
    FormulaMismatch,
    HypothesisNotMet,
    InvolutionNotWellDefined,
    NoCentralCover,
    NoGreatestElement,
    NoRightProjection,
    OrderCapExceeded,
    StarbenchError,
    VerificationFailed,
)
from .projections import (
    RingScan,
    _eigen_holds,
    _eigen_positions,
    largest_eigen_projections,
)
from .rings import StarRing, _Backend, _ProductBackend, _SectionBackend


class _PairBackend(_ProductBackend):
    """The pair ring R (+) K: the product R x K with the twisted product
    (a, lam)(b, mu) = (ab + mu.a + lam.b, lam mu). Pair index =
    a_index * |K| + lam_index, the product's encoding. The product is
    written once, in ``_twisted``, from its four terms: ``mul_pairs``
    gathers them pair by pair, and ``mul_lines`` splits the members once
    and evaluates ``_twisted`` once per block of rows, on 2-D term blocks
    (one broadcast ``mul_pairs`` of R and one of K, two gathers from the
    action), so neither the pair ring's rows nor a quotient's go through
    ``mul_pairs``, and a row is a one-row block. The ring is call-based.

    build_scalar_algebra has proved every action axiom, (lam.a)* =
    lam*.a* included, and with them the pair ring is a *-ring."""

    def __init__(self, algebra: ScalarAlgebra):
        super().__init__(algebra.ring, algebra.scalars)
        self._action = algebra.action.astype(np.int64)

    # not the product's componentwise block of rows
    mul_rows = _Backend.mul_rows

    def unity_candidate(self) -> Optional[int]:
        return self.right.unity  # (0, 1_K)

    def _twisted(self, ab, mu_a, lam_b, lam_mu) -> np.ndarray:
        """(ab + mu.a + lam.b, lam mu) from its terms, elementwise."""
        R = self.left
        return R.add_pairs(R.add_pairs(ab, mu_a), lam_b) * self.rn + lam_mu

    def mul_pairs(self, u, v) -> np.ndarray:
        ua, ul = self._split(u)
        va, vl = self._split(v)
        act = self._action
        return self._twisted(
            self.left.mul_pairs(ua, va), act[vl, ua], act[ul, va],
            self.right.mul_pairs(ul, vl),
        )

    def mul_lines(self, members) -> Callable:
        R, K = self.left, self.right
        act, nr = self._action.ravel(), R.order  # act[lam * nr + a] = lam.a
        elems, scalars = self._split(members)
        scalars_at = scalars * nr

        def rows(idx):  # (a, lam)(b, mu), (a, lam) in idx, (b, mu) members
            a, lam = self._split(idx)
            a, lam = a[:, None], lam[:, None]
            return self._twisted(
                R.mul_pairs(a, elems), act[scalars_at + a], act[lam * nr + elems],
                K.mul_pairs(lam, scalars),
            )

        return rows


@dataclass(frozen=True)
class KernelN:
    """The kernel ideal of the pair ring and its cosets: ``rep_of_pair[p]``
    is the least pair index in p + N, ``flags[p]`` tells whether pair
    index p lies in N (its least member is 0), and ``size`` counts N's
    members."""

    flags: np.ndarray
    size: int
    rep_of_pair: np.ndarray


@dataclass
class Quotient:
    """The unitified ring together with its construction data."""

    algebra: ScalarAlgebra
    r1: StarRing
    kernel: KernelN
    ring: StarRing
    reps: np.ndarray
    coset_of_pair: np.ndarray

    @property
    def kn(self) -> int:
        return self.algebra.scalars.order

    def embed_all(self) -> np.ndarray:
        """The coset of (a, 0) for every a of R."""
        idx = np.arange(self.algebra.ring.order, dtype=np.int64) * self.kn
        return self.coset_of_pair[idx]

    @cached_property
    def proper(self) -> bool:
        """Whether the quotient's involution is proper, decided once."""
        return is_proper_involution(self.ring).verdict


def build_R1(algebra: ScalarAlgebra, limits: Limits = DEFAULT_LIMITS) -> StarRing:
    """The unital pair ring R (+) K."""
    order = algebra.ring.order * algebra.scalars.order
    if order > limits.element_cap:
        raise OrderCapExceeded(order, limits.element_cap, what="pair ring")
    label = "pairs(%s over %s)" % (algebra.ring.label, algebra.scalars.label)
    return StarRing(_PairBackend(algebra), descriptor=None, label=label, limits=limits)


def compute_kernel_N(algebra: ScalarAlgebra) -> KernelN:
    """N = {(a, lam) : a x + lam.x = 0 for all x}, an ideal of the pair
    ring, with the least member of every pair's coset.

    The map x -> a x + lam.x is additive (the algebra proved every lam
    additive), so it is read off R's generators G (0 alone when R = {0},
    where G is empty): the signature of (a, lam) is the row
    (a g + lam.g) over g in G, one mul_pairs over the (a, g) grid and one
    broadcast add_pairs against the action's columns at G, O(n |K| |G|).
    The signature is additive in the pair (right distributivity and
    additivity in the scalar), so two signatures are equal exactly when
    the difference of the pairs acts as zero on G, and so on R: when it
    lies in N, and the pairs share a coset. A stable lexsort of the
    signature rows lists each class in ascending pair index, so the first
    of a class is its least member, and N is the class of the pair 0,
    whose least member is 0.

    N is an ideal by the action axioms build_scalar_algebra proves. Let
    (a, lam) be in N, (b, mu) in the pair ring and x in R:

    * closure, for (b, mu) in N too: (a + b)x + (lam + mu).x =
      (ax + lam.x) + (bx + mu.x) = 0, by right distributivity and
      additivity in the scalar;
    * left absorption: (ab + mu.a + lam.b)x + (lam mu).x =
      [a(bx) + lam.(bx)] + mu.(ax + lam.x) = 0, by (mu.a)x = mu.(ax),
      (lam.b)x = lam.(bx) and (lam mu).x = mu.(lam.x), K commutative;
    * right absorption: (ba + lam.b + mu.a)x + (mu lam).x =
      b(ax + lam.x) + mu.(ax + lam.x) = 0, by (lam.b)x = lam.(bx) =
      b(lam.x).
    """
    R = algebra.ring
    nr, gens = R.order, np.array(R.generators or (0,), dtype=np.int64)
    a = np.repeat(np.arange(nr, dtype=np.int64), len(gens))
    ag = R.mul_pairs(a, np.tile(gens, nr)).reshape(nr, 1, len(gens))
    signature = R.add_pairs(ag, algebra.action[:, gens][None]).reshape(-1, len(gens))
    order = np.lexsort(signature.T)
    ranked = signature[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    rep_of_pair = np.empty_like(order)
    rep_of_pair[order] = order[first][np.cumsum(first) - 1]
    flags = rep_of_pair == 0
    flags.setflags(write=False)
    return KernelN(flags=flags, size=int(np.count_nonzero(flags)), rep_of_pair=rep_of_pair)


def build_quotient(
    algebra: ScalarAlgebra,
    limits: Limits = DEFAULT_LIMITS,
) -> Quotient:
    """Quotient the pair ring by its kernel ideal.

    The involution descends exactly when N is star-closed (guaranteed for
    proper and semi-proper involutions on R, but always checked directly);
    otherwise InvolutionNotWellDefined names the first u in N with u*
    outside N.

    Each pair's coset representative, the least pair index in x + N,
    comes from compute_kernel_N's signatures, and coset_of_pair is then
    the canonical map R1 -> R1/N, by construction, so nothing audits it:

    1. Equal signatures <=> difference in N <=> same coset, and rep(x) is
       the least member of the class of x. So rep is constant on each
       coset, lies in it, and rep(rep(x)) = rep(x). R1 is a ring (R and K
       are *-rings, and build_scalar_algebra proves every action axiom),
       and N an ideal of it (compute_kernel_N's proof): for x in coset i
       and y in coset j, it holds x + y - (reps[i] + reps[j]) and
       xy - reps[i] reps[j] = (x - reps[i]) y + reps[i] (y - reps[j]),
       so the quotient's operations, computed on representatives, hold
       for every member of every coset pair.
    2. N* = N is checked first. So x* - rep(x)* = (x - rep(x))* lies in
       N, and the coset of x* is the coset of rep(x)*.
    """
    r1 = build_R1(algebra, limits)
    kern = compute_kernel_N(algebra)
    unstarred = kern.flags & ~kern.flags[r1.star_vector()]
    if unstarred.any():
        raise InvolutionNotWellDefined(r1.decode(int(np.argmax(unstarred))))
    distinct = flags_of(kern.rep_of_pair, r1.order)
    reps = np.flatnonzero(distinct)
    coset_of_pair = (np.cumsum(distinct) - 1)[kern.rep_of_pair]
    label = "unitified(%s over %s)" % (algebra.ring.label, algebra.scalars.label)
    qring = StarRing(
        _SectionBackend(r1, reps, coset_of_pair),
        descriptor=None,
        label=label,
        limits=limits,
    )
    return Quotient(
        algebra=algebra,
        r1=r1,
        kernel=kern,
        ring=qring,
        reps=reps,
        coset_of_pair=coset_of_pair,
    )


def _formula_table(
    quot: Quotient,
    targets: np.ndarray,
    rscan: RingScan,
    central: bool,
) -> np.ndarray:
    """The closed-form RP (central cover when ``central``) of every coset in
    ``targets``, read off its canonical representative (a, lam), or -1
    where the formula gives none:

    * lam = 0: [rp(a), 0] ([C(a), 0]), gathered from R's scan table;
    * lam != 0: [-g, 1], g the greatest (central) projection with
      a g = (-lam).g, from largest_eigen_projections: one mul_pairs grid
      against the candidate projections and one poset extremum per block.

    Every member (a', lam') of the coset with lam' != 0 gives the same g,
    since (a' - a, lam' - lam) in N gives a' g = (-lam').g exactly when
    a g = (-lam).g. Which form applies is the canonical representative's:
    a coset may hold members with lam = 0 and with lam != 0, and off the
    theorem's gates the two forms can differ.
    """
    algebra = quot.algebra
    R, K = algebra.ring, algebra.scalars
    a, lam = np.divmod(quot.reps[targets], quot.kn)
    out = np.empty(len(a), dtype=np.int64)
    inner = lam == 0
    found = (rscan.cover_all if central else rscan.rp_all)[a[inner]]
    out[inner] = np.where(found >= 0, quot.embed_all()[np.maximum(found, 0)], -1)
    g = largest_eigen_projections(
        algebra, a[~inner], K.neg_vector()[lam[~inner]], central_only=central, scan=rscan
    )
    pairs = R.neg_vector()[g] * quot.kn + K.unity
    out[~inner] = np.where(g >= 0, quot.coset_of_pair[pairs], -1)
    return out


def _formula_failure(
    quot: Quotient, c: int, qscan: RingScan, rscan: RingScan, central: bool
) -> StarbenchError:
    """The error that names the failure at a coset c that
    _formula_disagreements flags: the first of its checks to fail there,
    in their order.

    * The quotient's scan has no answer at c.
    * The formula has none at the target: c, or c* c for the rp of a coset
      that is not self-adjoint (flagged past the first check only when
      the involution is proper). R's search at a names what is missing
      where lam = 0, and the qualifying projections, one row of the eigen
      grid, where lam != 0.
    * The two answers differ.
    * Only the covers' last check is left: r(cQ) differs from r(C(c)).
    """
    q = qscan.ring
    missing = NoCentralCover if central else NoRightProjection
    brute = int((qscan.cover_all if central else qscan.rp_all)[c])
    if brute < 0:
        return missing(q.decode(c))
    target = c if central or q.star(c) == c else q.mul(q.star(c), c)
    formula = int(_formula_table(quot, np.array([target]), rscan, central)[0])
    if formula < 0:
        algebra = quot.algebra
        R = algebra.ring
        a, lam = divmod(int(quot.reps[target]), quot.kn)
        if lam == 0:
            return missing(R.decode(a))
        gs = rscan.poset.indices[_eigen_positions(rscan.poset, central)]
        holds = _eigen_holds(algebra, np.array([a]), np.array([algebra.scalars.neg(lam)]), gs)[0]
        return NoGreatestElement([R.decode(int(g)) for g in gs[holds]])
    if formula != brute:
        return FormulaMismatch(q.decode(c), q.decode(formula), q.decode(brute))
    return VerificationFailed("cover-biconditional", q.decode(c))


def _formula_disagreements(
    quot: Quotient, qscan: RingScan, rscan: RingScan, central: bool
) -> np.ndarray:
    """Flags of the cosets c at which the right projection (the central
    cover when ``central``) fails the formula check, for every coset at
    once: the quotient's scan has no answer at c, or the formula table has
    none or another at c (at c* c for a coset that is not self-adjoint,
    RP(c) = RP(c* c) when the quotient's involution is proper, which
    ``quot.proper`` decides once; such cosets are not checked when it is
    not), or, for covers, r(cQ) differs from r(C(c)). _formula_failure
    names the failure at a flagged coset."""
    q = qscan.ring
    cosets = np.arange(q.order, dtype=np.int64)
    brute = qscan.cover_all if central else qscan.rp_all
    targets, checked = cosets, np.ones(q.order, dtype=bool)
    if not central:
        adjoint = q.star_vector()
        moved = adjoint != cosets
        if moved.any() and quot.proper:
            targets = np.where(moved, q.mul_pairs(adjoint, cosets), cosets)
        else:
            checked = ~moved
    formula = np.full(q.order, -1, dtype=np.int64)
    formula[checked] = _formula_table(quot, targets[checked], rscan, central)
    bad = (brute < 0) | (checked & (formula != brute))
    if central:
        rann = qscan.rann
        bad |= [r != rann[b] for r, b in zip(qscan.r_of_aR, brute.tolist())]
    return bad


@dataclass
class EmbeddingReport:
    """Result of verify_unitification; JSON shape is fixed for goldens."""

    mode: str
    ring: str
    scalars: str
    hypotheses: Dict[str, bool]
    flags: List[str]
    kernel_order: int
    quotient_order: int
    injective: bool
    noninjective_witness: Optional[Any]
    quotient_satisfies: bool
    preservation: List[dict]
    formula_agreement: bool
    failures: List[str] = field(default_factory=list)
    verdict: bool = False

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "ring": self.ring,
            "scalars": self.scalars,
            "hypotheses": dict(sorted(self.hypotheses.items())),
            "flags": list(self.flags),
            "kernel_order": self.kernel_order,
            "quotient_order": self.quotient_order,
            "injective": self.injective,
            "noninjective_witness": self.noninjective_witness,
            "quotient_satisfies": self.quotient_satisfies,
            "preservation": self.preservation,
            "formula_agreement": self.formula_agreement,
            "failures": list(self.failures),
            "verdict": self.verdict,
        }


def _first_collision(R: StarRing, emb: np.ndarray) -> Optional[list]:
    """Why a -> [a, 0] is not injective: [first earlier index, colliding
    index], decoded, for the least index whose image an earlier one has;
    None when the embedding is injective."""
    earlier = first_positions(emb, int(emb.max()) + 1)[emb]
    colliding = np.flatnonzero(earlier < np.arange(len(emb)))
    if not len(colliding):
        return None
    a = int(colliding[0])
    return [R.decode(int(earlier[a])), R.decode(a)]


def _decoded(ring: StarRing, indices: np.ndarray) -> list:
    """ring.decode of each index, None for a negative one; each distinct
    index is decoded once."""
    values = indices.tolist()
    names = {v: ring.decode(v) if v >= 0 else None for v in set(values)}
    return [names[v] for v in values]


def verify_unitification(
    algebra: ScalarAlgebra,
    mode: str = "rickart",
    limits: Limits = DEFAULT_LIMITS,
) -> EmbeddingReport:
    """Machine-check the unit-adjunction theorem on a concrete algebra.

    mode "rickart": gate on R weakly Rickart* and condition (3); then build
    the unitified ring and check it is Rickart*, that a -> [a, 0] preserves
    right projections element by element, and that the [-g, 1] formula
    agrees with brute force on every coset.

    mode "pqbaer": the central-cover mirror, gated on R weakly p.q.-Baer*
    and condition (beta).

    On a finite ring the first gate of each mode decides the second.
    Condition (3) asks, for each nonzero lam, for a projection above LP(x)
    for every x with lam.x = 0; condition (beta) the same of C(x). Every
    finite set of projections of a weakly Rickart* ring has an upper
    bound: every x has RP(x), so LP(x) = RP(x*) exists, and for
    projections e and f, p = RP(f - fe) gives pe = 0, as (f - fe)e = 0,
    so ep = 0, and fp = f - fe, as x RP(x) = x; so g = e + p is a
    projection with eg = e and fg = f. Likewise every x of a weakly
    p.q.-Baer* ring has C(x), and central projections h and k lie below
    the projection h + k - hk. So the report records both conditions as
    holding, and nothing scans them.

    Preservation compares R's table with the quotient's table at the
    embedded elements, as arrays. The formula is checked on every coset in
    one pass (_formula_disagreements); the message of _formula_failure at
    the first coset that disagrees is the recorded failure.

    Every check reads one quotient ring: the tabled twin of a
    quotient with order squared at most ``limits.table_threshold``, the
    call-based quotient otherwise. Both decode alike.

    Unmet gates raise HypothesisNotMet. Claim-level failures do not raise;
    they are recorded in the report with verdict False. The K-is-a-domain
    and torsion-free flags are informational: the construction is exercised
    precisely because it works without them.
    """
    if mode not in ("rickart", "pqbaer"):
        raise ValueError("mode must be 'rickart' or 'pqbaer'")
    R = algebra.ring
    K = algebra.scalars
    rscan = RingScan(R)
    hypotheses: Dict[str, bool] = {
        "k_is_domain": algebra.k_is_domain,
        "torsion_free": algebra.torsion_free,
    }
    flags: List[str] = []
    if not algebra.k_is_domain:
        flags.append("K-not-domain")
    if not algebra.torsion_free:
        flags.append("torsion-present")

    if mode == "rickart":
        gate = is_weakly_rickart_star(R, rscan)
        hypotheses["weakly_rickart"] = gate.verdict
        if not gate.verdict:
            raise HypothesisNotMet("ring is weakly Rickart*", gate.witness)
        hypotheses["condition_3"] = True
        hypotheses["proper_involution"] = is_proper_involution(R).verdict
    else:
        gate = is_weakly_pq_baer_star(R, rscan)
        hypotheses["weakly_pq_baer"] = gate.verdict
        if not gate.verdict:
            raise HypothesisNotMet("ring is weakly p.q.-Baer*", gate.witness)
        hypotheses["condition_beta"] = True
        hypotheses["semi_proper"] = is_semi_proper(R, rscan).verdict

    quot = build_quotient(algebra, limits)
    q = quot.ring
    if q.order**2 <= limits.table_threshold:
        q = q.tabled()  # every row of Q is scanned: its tables pay for themselves
    qscan = RingScan(q)
    failures: List[str] = []

    emb = quot.embed_all()
    noninjective = _first_collision(R, emb)
    injective = noninjective is None
    if not injective:
        failures.append("embedding-not-injective")

    if mode == "rickart":
        cls = is_rickart_star(q, qscan)
    else:
        cls = is_pq_baer_star(q, qscan)
    if not cls.verdict:
        failures.append("quotient-classifier:%r" % (cls.witness,))

    central = mode == "pqbaer"
    key_r, key_q = ("cover_R", "cover_Q") if central else ("rp_R", "rp_Q")
    in_r = rscan.cover_all if central else rscan.rp_all
    in_q = (qscan.cover_all if central else qscan.rp_all)[emb]
    ok = (in_r >= 0) & (in_q >= 0) & (emb[np.maximum(in_r, 0)] == in_q)
    all_ok = bool(ok.all())
    preservation = [
        {"a": R.decode(a), key_r: r_name, key_q: q_name, "ok": row_ok}
        for a, r_name, q_name, row_ok in zip(
            range(R.order), _decoded(R, in_r), _decoded(q, in_q), ok.tolist()
        )
    ]
    if not all_ok:
        failures.append("preservation")

    first = np.flatnonzero(_formula_disagreements(quot, qscan, rscan, central))[:1]
    formula_ok = not len(first)
    if not formula_ok:
        failures.append("formula:%s" % _formula_failure(quot, int(first[0]), qscan, rscan, central))

    report = EmbeddingReport(
        mode=mode,
        ring=R.label,
        scalars=K.label,
        hypotheses=hypotheses,
        flags=flags,
        kernel_order=quot.kernel.size,
        quotient_order=q.order,
        injective=injective,
        noninjective_witness=noninjective,
        quotient_satisfies=cls.verdict,
        preservation=preservation,
        formula_agreement=formula_ok,
        failures=failures,
        verdict=bool(injective and cls.verdict and all_ok and formula_ok),
    )
    return report


def describe_unitification(
    algebra: ScalarAlgebra, limits: Limits = DEFAULT_LIMITS
) -> dict:
    """Build the pair ring and quotient with no theorem gates and report the
    construction data: kernel size, quotient order, embedding injectivity.

    This is the right entry point for negative controls, where the point is
    to watch the embedding degenerate."""
    quot = build_quotient(algebra, limits)
    q = quot.ring
    R = algebra.ring
    emb = quot.embed_all()
    noninjective = _first_collision(R, emb)
    return {
        "mode": "build",
        "ring": R.label,
        "scalars": algebra.scalars.label,
        "pair_ring_order": quot.r1.order,
        "kernel_order": quot.kernel.size,
        "quotient_order": q.order,
        "quotient_unity": q.decode(q.unity) if q.unity is not None else None,
        "injective": noninjective is None,
        "noninjective_witness": noninjective,
        "embed_image_size": int(np.count_nonzero(flags_of(emb, q.order))),
    }


def check_R1_lemmas(algebra: ScalarAlgebra, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Pair-ring lemmas under the classical hypotheses.

    Gates: K an integral domain and R torsion-free over K (HypothesisNotMet
    otherwise; the quotient route exists precisely to go beyond these).
    Checks: (i) a proper involution on R stays proper on the pair ring;
    (ii) RP(x) = e in R iff RP((x, 0)) = (e, 0) in the pair ring, for every
    x. Divergence raises VerificationFailed.
    """
    K = algebra.scalars
    if not algebra.torsion_free:
        hits = np.argwhere(np.asarray(algebra.action)[1:, 1:] == 0)
        lam, a = int(hits[0][0]) + 1, int(hits[0][1]) + 1
        raise HypothesisNotMet(
            "the module action is torsion-free",
            {"lam": K.decode(lam), "a": algebra.ring.decode(a)},
        )
    if not algebra.k_is_domain:
        pair = first_zero_divisor(K)  # none in a one-element K, where 1 = 0
        raise HypothesisNotMet(
            "scalars form an integral domain",
            {"lam": K.decode(pair[0]), "mu": K.decode(pair[1])} if pair else {"order": K.order},
        )
    R = algebra.ring
    kn = algebra.scalars.order
    r1 = build_R1(algebra, limits)
    rscan = RingScan(R)
    r1scan = RingScan(r1)
    proper_r = is_proper_involution(R).verdict
    if proper_r and not is_proper_involution(r1).verdict:
        raise VerificationFailed("proper-involution-transfer", r1.label)
    checked = 0
    for x in range(R.order):
        in_r = int(rscan.rp_all[x])
        in_r1 = int(r1scan.rp_all[x * kn])
        if in_r >= 0:
            if in_r1 != in_r * kn:
                raise VerificationFailed(
                    "rp-pair-transfer",
                    (R.decode(x), R.decode(in_r), r1.decode(in_r1) if in_r1 >= 0 else None),
                )
        else:
            if in_r1 >= 0 and in_r1 % kn == 0:
                raise VerificationFailed(
                    "rp-pair-transfer-converse", (R.decode(x), r1.decode(in_r1))
                )
        checked += 1
    return {
        "ring": R.label,
        "scalars": algebra.scalars.label,
        "pair_ring_order": r1.order,
        "proper_involution_transfers": proper_r,
        "elements_checked": checked,
        "ok": True,
    }
