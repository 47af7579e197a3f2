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
a_index * |K| + lam_index), so [0, 1] names the unity. build_quotient finds
every pair's representative at once, by doubling along each generator of
N (_coset_minima), in O(|R1| sum of log ord g) rather than one shift of
every pair per member of N.

Nothing is sampled, and the only premise is the *-ring laws of R and K,
which every StarRing obeys. The action has been proved additive in the
element, so x -> a x + lam.x is additive for every pair (a, lam) and
vanishes on all of R once it vanishes on R's additive generators G:
compute_kernel_N reads N's exact membership off x in G, and keeps it as
flags over the pair indices (KernelN.flags), which build_quotient reads to
check that N* = N and the quotient audit reads as N. It verifies that
N is an additive subgroup by walking the span of N's greedy generators,
which is N exactly when N is closed under +. Absorption and the quotient
audit's invariance (_validate_quotient) are each one check that takes
the members it loops over: on N's generators it is a proof, and only if
that fails does it run on every member, which names the witness, as the
all-pairs closure check does after the span walk fails. The quotient's
operations are thus proved well defined on every coset pair, and the
pair ring and the quotient are *-rings, so the quotient's scans read its
left side off the right one at the adjoint (projections.RingScan).
verify_unitification, which
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
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    condition3_witnesses,
    condition_beta_witnesses,
    largest_eigen_projections,
)
from .rings import (
    StarRing,
    _Backend,
    _ProductBackend,
    _SectionBackend,
    _greedy_span,
)


class _PairBackend(_ProductBackend):
    """The pair ring R (+) K: the product R x K with the twisted product
    (a, lam)(b, mu) = (ab + mu.a + lam.b, lam mu). Pair index =
    a_index * |K| + lam_index, the product's encoding. The product is
    written once, in ``_twisted``, from its four terms: ``mul_pairs``
    gathers them pair by pair, and ``mul_lines`` splits the members once
    and evaluates ``_twisted`` once per block, on 2-D term blocks (one
    broadcast ``mul_pairs`` of R and one of K, two gathers from the
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

    def mul_lines(self, members) -> Tuple[Callable, Callable]:
        R, K = self.left, self.right
        act, nr = self._action.ravel(), R.order  # act[lam * nr + a] = lam.a
        elems, scalars = self._split(members)
        scalars_at = scalars * nr

        def blocks(idx):  # the elements and scalars of idx, as columns
            a, lam = self._split(idx)
            return a[:, None], lam[:, None]

        def rows(idx):  # (a, lam)(b, mu), (a, lam) in idx, (b, mu) members
            a, lam = blocks(idx)
            return self._twisted(
                R.mul_pairs(a, elems), act[scalars_at + a], act[lam * nr + elems],
                K.mul_pairs(lam, scalars),
            )

        def cols(idx):  # (a, lam)(b, mu), (b, mu) in idx, (a, lam) members
            b, mu = blocks(idx)
            return self._twisted(
                R.mul_pairs(elems, b), act[mu * nr + elems], act[scalars_at + b],
                K.mul_pairs(scalars, mu),
            )

        return rows, cols


@dataclass(frozen=True)
class KernelN:
    """The kernel ideal of the pair ring: ``flags[p]`` tells whether pair
    index p lies in N, ``size`` counts its members, and ``generators`` is
    an additive generating set of N: N is their span."""

    flags: np.ndarray
    size: int
    generators: Tuple[int, ...]


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


def compute_kernel_N(
    algebra: ScalarAlgebra,
    r1: Optional[StarRing] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> KernelN:
    """N = {(a, lam) : a x + lam.x = 0 for all x}, with its ideal invariants
    verified rather than assumed (any failure is a bug and raises).

    a x + lam.x = 0 exactly when lam.x is the additive inverse of a x. The
    map x -> a x + lam.x is additive (the algebra proved every lam
    additive), so x in R's generators G decides membership: one mul_pairs
    over the (a, g) grid, O(n |K| |G|).

    Additive closure holds exactly when the span of N's greedy generators
    is N (the pair ring's + is a group law), which the coset walk of
    rings._greedy_span decides in O(|N| |G_N|). If the span is larger,
    every sum of two members is checked, one member at a time, which names
    the first witness. Absorption is one check, run first on N's
    generators against the pair ring's generators G x {0} and {0} x G_K,
    both sides (a product is biadditive, so that covers every product of
    N with the pair ring), and then, if that fails, on every member
    against every pair, which names the witness.
    """
    R, K = algebra.ring, algebra.scalars
    if r1 is None:
        r1 = build_R1(algebra, limits)
    nr, nk = R.order, K.order
    gens = np.array(R.generators, dtype=np.int64)
    a = np.repeat(np.arange(nr, dtype=np.int64), len(gens))
    neg_ag = R.neg_vector()[R.mul_pairs(a, np.tile(gens, nr))].reshape(nr, 1, len(gens))
    flags = (algebra.action[:, gens][None, :, :] == neg_ag).all(axis=2).ravel()
    flags.setflags(write=False)
    members = np.flatnonzero(flags)

    # additive subgroup
    span, n_gens = _greedy_span(r1.add_pairs, flags)
    if not np.array_equal(span, flags):  # name the first sum outside N
        for u_ in members:
            sums = r1.add_pairs(np.full(len(members), u_), members)
            if not flags[sums].all():
                bad = int(sums[int(np.argmax(~flags[sums]))])
                raise VerificationFailed("kernel-additive-closure", r1.decode(bad))

    def first_unabsorbed(us, against):
        """The first u in ``us`` with a product by some member of
        ``against``, from either side, outside N; else None."""
        rows, cols = r1.mul_lines(against)
        for u_ in us:
            u_ = int(u_)
            if not (flags[rows([u_])].all() and flags[cols([u_])].all()):
                return u_
        return None

    # two-sided absorption
    if first_unabsorbed(
        n_gens, [g * nk for g in R.generators] + list(K.generators)
    ) is not None:
        bad = first_unabsorbed(members, np.arange(r1.order))
        if bad is not None:
            raise VerificationFailed("kernel-absorption", r1.decode(bad))
    return KernelN(flags=flags, size=len(members), generators=tuple(n_gens))


def _validate_quotient(quot: "Quotient") -> None:
    """Certify that +, * and the involution are well defined on every coset.

    Premise: the pair ring R1 is a ring (R and K are *-rings and
    build_scalar_algebra has validated every action axiom), and N is an
    additive subgroup and two-sided ideal of R1, which compute_kernel_N
    verifies. Three checks over every pair index x of R1 then prove that
    coset_of_pair is the canonical map R1 -> R1/N:

    * invariance: x + h lies in the coset of x for every member h of N.
      Checking h among the kernel's additive generators suffices, since
      x + (h + h') = (x + h) + h'; if that fails, every member is checked,
      which names the witness;
    * separation: x - reps[coset(x)] lies in N, and each rep is in its own
      coset;
    * the involution: the coset of x* is the coset of rep(x)*.

    Invariance gives coset(x) = coset(y) whenever x - y is in N, and
    separation the converse. For x in coset i and y in coset j, the ideal
    holds x + y - (reps[i] + reps[j]) and
    xy - reps[i] reps[j] = (x - reps[i]) y + reps[i] (y - reps[j]), so the
    quotient's operations, computed on representatives, hold for every
    member of every coset pair. The audit is exhaustive; nothing is sampled.
    A failed check raises VerificationFailed.
    """
    r1 = quot.r1
    coset = quot.coset_of_pair
    in_n = quot.kernel.flags
    pairs = np.arange(r1.order, dtype=np.int64)

    def first_moved(shifts):
        for h in shifts:
            moved = coset[r1.add_pairs(pairs, np.full(r1.order, h, dtype=np.int64))]
            if not np.array_equal(moved, coset):
                return int(np.argmax(moved != coset)), int(h)
        return None

    if first_moved(quot.kernel.generators) is not None:
        hit = first_moved(np.flatnonzero(in_n))
        if hit is not None:
            x, h = hit
            raise VerificationFailed(
                "quotient-coset-invariant", (r1.decode(x), r1.decode(h))
            )
    own = coset[quot.reps] != np.arange(len(quot.reps))
    if own.any():
        x = int(quot.reps[int(np.argmax(own))])
        raise VerificationFailed("quotient-coset-separation", r1.decode(x))
    apart = ~in_n[r1.add_pairs(pairs, r1.neg_vector()[quot.reps[coset]])]
    if apart.any():
        raise VerificationFailed(
            "quotient-coset-separation", r1.decode(int(np.argmax(apart)))
        )
    star_all = coset[r1.star_vector()]
    star_reps = coset[r1.star_vector()[quot.reps]]
    expected = star_reps[coset]
    if not np.array_equal(star_all, expected):
        bad = int(np.argmax(star_all != expected))
        raise VerificationFailed("quotient-star-well-defined", r1.decode(bad))


def _coset_minima(r1: StarRing, shifts) -> np.ndarray:
    """The least pair index of x + H for every pair x, H the additive
    subgroup the ``shifts`` generate, in O(|R1| sum of log ord g).

    The minima over H are taken one generator g at a time. With ``step``
    the map x -> x + g (one add_pairs), each round sets
    rep = min(rep, rep[step]) and step = step[step], so that after k rounds
    rep[x] is the least of the previous minima at x, x + g, ...,
    x + (2^k - 1) g, and step is x -> x + 2^k g. A round that changes
    nothing ends the generator: rep[x] <= rep[x + 2^k g] for every x then
    gives rep[x] <= rep[x + j 2^k g] for every j, which with the 2^k
    shifts already taken covers the whole orbit x + <g>. That round comes
    once 2^k reaches the order of g, if not before."""
    n = r1.order
    pairs = np.arange(n, dtype=np.int64)
    rep = pairs
    for g in shifts:
        step = r1.add_pairs(pairs, np.full(n, int(g), dtype=np.int64))
        while True:
            lower = np.minimum(rep, rep[step])
            if np.array_equal(lower, rep):
                break
            rep = lower
            step = step[step]
    return rep


def build_quotient(
    algebra: ScalarAlgebra,
    limits: Limits = DEFAULT_LIMITS,
) -> Quotient:
    """Quotient the pair ring by its kernel ideal.

    The involution descends exactly when N is star-closed (guaranteed for
    proper and semi-proper involutions on R, but always checked directly);
    otherwise InvolutionNotWellDefined names the first u in N with u*
    outside N.

    Each pair's coset representative, the least pair index in x + N, comes
    from _coset_minima over N's generators: one add_pairs per generator g
    and about log2(ord g) rounds of gathers, O(|R1| sum of log ord g) in
    all.
    _validate_quotient then proves the cosets right, whatever found them.
    """
    r1 = build_R1(algebra, limits)
    kern = compute_kernel_N(algebra, r1, limits)
    unstarred = kern.flags & ~kern.flags[r1.star_vector()]
    if unstarred.any():
        raise InvolutionNotWellDefined(r1.decode(int(np.argmax(unstarred))))
    rep_of_pair = _coset_minima(r1, kern.generators)
    distinct = flags_of(rep_of_pair, r1.order)
    reps = np.flatnonzero(distinct)
    coset_of_pair = (np.cumsum(distinct) - 1)[rep_of_pair]
    label = "unitified(%s over %s)" % (algebra.ring.label, algebra.scalars.label)
    qring = StarRing(
        _SectionBackend(r1, reps, coset_of_pair),
        descriptor=None,
        label=label,
        limits=limits,
    )
    quot = Quotient(
        algebra=algebra,
        r1=r1,
        kernel=kern,
        ring=qring,
        reps=reps,
        coset_of_pair=coset_of_pair,
    )
    _validate_quotient(quot)
    return quot


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

    Preservation compares R's table with the quotient's table at the
    embedded elements, as arrays. The formula is checked on every coset in
    one pass (_formula_disagreements); the message of _formula_failure at
    the first coset that disagrees is the recorded failure.

    mode "pqbaer": the central-cover mirror, gated on R weakly p.q.-Baer*
    and condition (beta).

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
        dom = condition3_witnesses(algebra, rscan)
        hypotheses["condition_3"] = dom.ok
        if not dom.ok:
            lam, x = dom.failure
            raise HypothesisNotMet(
                "condition (3)", {"lam": K.decode(lam), "x": R.decode(x)}
            )
        hypotheses["proper_involution"] = is_proper_involution(R).verdict
    else:
        gate = is_weakly_pq_baer_star(R, rscan)
        hypotheses["weakly_pq_baer"] = gate.verdict
        if not gate.verdict:
            raise HypothesisNotMet("ring is weakly p.q.-Baer*", gate.witness)
        dom = condition_beta_witnesses(algebra, rscan)
        hypotheses["condition_beta"] = dom.ok
        if not dom.ok:
            lam, x = dom.failure
            raise HypothesisNotMet(
                "condition (beta)", {"lam": K.decode(lam), "x": R.decode(x)}
            )
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
