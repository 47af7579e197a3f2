"""Projections, the projection poset, and projection-valued operators.

A projection is a self-adjoint idempotent (e = e* = e^2). The poset order is
e <= f iff ef = e = fe; for projections in a *-ring the two one-sided
conditions are equivalent, and this equivalence is asserted during
construction rather than assumed.

:class:`RingScan` bundles the per-ring caches every scan needs: annihilator
bitsets for single elements, r(aR) for every a, the projection poset,
and precomputed rp/lp/central-cover tables. Classifier and verification
code shares one scan per ring.

Operator conventions (all searches ascend element indices, so results and
witnesses are the lowest-index ones):

* rp(x): the projection e with xe = x and (xy = 0 implies ey = 0).
* lp(x): mirror; rp(x*) read at the adjoint.
* rp_via_star(x): rp(x* x), asserted equal to rp(x); sensible when the
  involution is proper.
* central_cover(x): least central projection h with hx = x.
* largest_eigen_projection(A, a, lam): greatest projection g with
  a g = lam.g (optionally among central projections only);
  largest_eigen_projections answers it for arrays of (a, lam) at once.

Every greatest or least element, of the central projections fixing x, of
the eigen-projections or of a scalar's upper bounds, comes from one
primitive, ``ProjectionPoset.extremum``, which answers a whole boolean
matrix of candidate sets at once.
* scalar domination reports: for every nonzero scalar lam, a projection
  e_lam dominating LP(x) (or C(x)) for all x killed by lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import ScalarAlgebra
from .bitsets import (
    first_positions,
    flags_of,
    full_mask,
    is_subset,
    iter_indices,
    mask_from_bool,
    masks_from_rows,
)
from .errors import (
    AmbiguousLeftProjection,
    AmbiguousRightProjection,
    NoCentralCover,
    NoGreatestElement,
    NoLeftProjection,
    NoRightProjection,
    VerificationFailed,
)
from .rings import SCAN_BLOCK, StarRing, _lines_per_block, stack_lines


@dataclass(frozen=True)
class Projection:
    index: int
    central: bool


class ProjectionPoset:
    """All projections of a ring, ordered by e <= f iff ef = e = fe."""

    def __init__(self, ring: StarRing):
        self.ring = ring
        n = ring.order
        idx = np.arange(n, dtype=np.int64)
        fixed = ring.star_vector() == idx
        cand = np.flatnonzero(fixed)
        idem = ring.mul_pairs(cand, cand) == cand
        self.indices = cand[idem].astype(np.int64)
        p = len(self.indices)
        self._positions = np.full(n, -1, dtype=np.int64)
        self._positions[self.indices] = np.arange(p)

        # e is central when it commutes with every additive generator g:
        # then, by distributivity, with every sum of them
        gens = np.array(ring.generators, dtype=np.int64)
        col = self.indices[:, None]
        self.central_flags = (ring.mul_pairs(col, gens) == ring.mul_pairs(gens, col)).all(axis=1)

        e = np.repeat(self.indices, p)
        f = np.tile(self.indices, p)
        ef = (ring.mul_pairs(e, f) == e).reshape(p, p)
        fe = (ring.mul_pairs(f, e) == e).reshape(p, p)
        asymmetric = np.argwhere(ef != fe)  # row-major: the first (e, f)
        if len(asymmetric):
            i, j = (int(k) for k in asymmetric[0])
            raise VerificationFailed(
                "projection-order-asymmetry",
                (ring.decode(int(self.indices[i])), ring.decode(int(self.indices[j]))),
            )
        self.leq = ef

    def __len__(self) -> int:
        return len(self.indices)

    def items(self) -> List[Projection]:
        return [
            Projection(int(e), bool(c))
            for e, c in zip(self.indices, self.central_flags)
        ]

    def position(self, e_index):
        """The position of a projection's index, -1 for any other element;
        elementwise on an array of indices."""
        return self._positions[e_index]

    def central_positions(self) -> np.ndarray:
        return np.flatnonzero(self.central_flags)

    @cached_property
    def _down_sizes(self) -> np.ndarray:
        """_down_sizes[f] = the number of projections e <= f."""
        return self.leq.sum(axis=0)

    def extremum(
        self, member: np.ndarray, greatest: bool, positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """For each row of the (rows x m) boolean matrix ``member``, which
        marks the row's members among the projections at ``positions``
        (every position by default, m = p), the position of the row's
        greatest member, or of its least one, or -1 when it has none (an
        empty row included).

        Below a greatest member f lies every other member e, whose down-set
        is then a proper subset of f's: it lacks f. So f is the member with
        the most projections below it, and likewise a least member is the
        one with the fewest. Each row's candidate is picked by down-set
        size, and one rows x m test confirms that it bounds the row. Rows
        are taken about ``SCAN_BLOCK`` entries at a time, so no temporary
        has more than one block of rows x m entries."""
        if positions is None:
            positions = np.arange(len(self))
        positions = np.asarray(positions, dtype=np.int64)
        rows, m = member.shape
        out = np.full(rows, -1, dtype=np.int64)
        if not m:
            return out
        sizes = self._down_sizes[positions]
        score = sizes if greatest else len(self) - sizes  # highest picks
        leq = self.leq[np.ix_(positions, positions)]
        step = _rows_per_block(m)
        for start in range(0, rows, step):
            block = member[start : start + step]
            cand = np.where(block, score, -1).argmax(axis=1)
            bound = leq[:, cand].T if greatest else leq[cand]  # bound[t, j]: j vs cand
            ok = block[np.arange(len(block)), cand] & ~(block & ~bound).any(axis=1)
            out[start : start + len(block)] = np.where(ok, positions[cand], -1)
        return out


class RingScan:
    """Shared per-ring caches for the exhaustive scans.

    Everything is computed lazily and exactly once. ``rann`` comes from one
    pass over ``mul_rows``, a block of rows at a time, and ``lann`` and
    ``col_sets`` from one pass that calls ``mul_col`` once per element;
    ``row_sets`` takes a row pass of its own. A projection's column is its
    row mirrored through the involution (``_column``).

    ``r_of_aR`` holds r(aR) for every a: aR is the additive span of aG, G
    the additive generators (left distributivity), and r(S) = r(span S)
    (right distributivity), so r(aR) is the meet of rann[a*g] over g in G.

    The classifiers and rp/lp read no left side: (y r a)* = a* r* y*, so y
    is in l(Ra) iff y* is in r(a*R), and Rf = (fR)* for a projection f;
    hence l(Ra) = Rf iff r(a*R) = fR. Likewise a projection f is an LP
    candidate of x iff it is an RP candidate of x*, so lp_all[x] =
    rp_all[x*]. No verb reads ``lann``/``col_sets``/``l_of``.

    ``r_of``/``l_of`` intersect ``rann``/``lann`` over a set of elements,
    memoized by the set's bitset. The arrays returned by rp_all/lp_all use
    -1 for "no such projection" and -2 for "ambiguous" (ambiguity cannot
    happen in a *-ring; kept as a guard).
    """

    def __init__(self, ring: StarRing):
        self.ring = ring
        self._r_memo: Dict[int, int] = {}
        self._l_memo: Dict[int, int] = {}

    def r_of(self, mask: int) -> int:
        """Bitset of r(S) = {y : s*y = 0 for every s in S}, S given by
        ``mask``; the whole ring for the empty set."""
        return _intersect_over(self.rann, mask, self._r_memo)

    def l_of(self, mask: int) -> int:
        """Bitset of l(S) = {y : y*s = 0 for every s in S}."""
        return _intersect_over(self.lann, mask, self._l_memo)

    @cached_property
    def _col_pass(self) -> Tuple[List[int], Optional[List[int]]]:
        """lann and col_sets from one pass over the columns."""
        ring, n = self.ring, self.ring.order
        return _zero_and_value_sets(lambda idx: stack_lines(ring.mul_col, idx, n), n)

    @cached_property
    def rann(self) -> List[int]:
        """rann[s] = bitset of the right annihilator {y : s*y = 0}."""
        return _zero_and_value_sets(self.ring.mul_rows, self.ring.order, values=False)[0]

    @cached_property
    def lann(self) -> List[int]:
        """lann[s] = bitset of the left annihilator {y : y*s = 0}."""
        return self._col_pass[0]

    @cached_property
    def row_sets(self) -> List[int]:
        """row_sets[a] = bitset of aR = {a*r : r}."""
        return _zero_and_value_sets(self.ring.mul_rows, self.ring.order)[1]

    @cached_property
    def col_sets(self) -> List[int]:
        """col_sets[a] = bitset of Ra = {r*a : r}."""
        return self._col_pass[1]

    @cached_property
    def r_of_aR(self) -> List[int]:
        """r_of_aR[a] = bitset of r(aR) = {y : a*r*y = 0 for every r}: the
        meet of rann[a*g] over the additive generators g (the whole ring
        when there are none), from one ``mul_pairs`` of shape (n, |G|)."""
        ring = self.ring
        n, gens = ring.order, np.array(ring.generators, dtype=np.int64)
        members = ring.mul_pairs(np.repeat(np.arange(n), len(gens)), np.tile(gens, n))
        rann, whole = self.rann, full_mask(n)
        rows = members.reshape(n, len(gens)).tolist()
        return [reduce(and_, map(rann.__getitem__, row), whole) for row in rows]

    @cached_property
    def poset(self) -> ProjectionPoset:
        return ProjectionPoset(self.ring)

    def _fixed(self, line) -> np.ndarray:
        """fixed[i, x] <=> line(e_i)[x] = x, for projection position i."""
        r = self.ring
        idx = np.arange(r.order, dtype=np.int64)
        rows = [line(int(e)) == idx for e in self.poset.indices]
        return np.array(rows, dtype=bool).reshape(len(self.poset), r.order)

    @cached_property
    def _fixed_right(self) -> np.ndarray:
        """fixed_right[i, x] <=> x * e_i = x, for projection position i."""
        return self._fixed(lambda e: _column(self.ring, e))

    @cached_property
    def _fixed_left(self) -> np.ndarray:
        """fixed_left[i, x] <=> e_i * x = x."""
        return self._fixed(self.ring.mul_row)

    @cached_property
    def rp_all(self) -> np.ndarray:
        """For every x, its one right-projection candidate (see
        ``_rp_candidates``), -1 when there is none and -2 when there are
        several. Each e visits only the x it fixes."""
        ann, fixed = self.rann, self._fixed_right
        out = np.full(self.ring.order, -1, dtype=np.int64)
        for i, e in enumerate(self.poset.indices.tolist()):
            for x in np.flatnonzero(fixed[i]).tolist():
                if is_subset(ann[x], ann[e]):
                    out[x] = e if out[x] == -1 else -2
        return out

    @cached_property
    def lp_all(self) -> np.ndarray:
        return self.rp_all[self.ring.star_vector()]

    @cached_property
    def cover_all(self) -> np.ndarray:
        """cover_all[x] = index of C(x), or -1 when no central cover exists:
        the least of the central projections h with hx = x, found for every
        x at once by ``ProjectionPoset.extremum``."""
        poset = self.poset
        centrals = poset.central_positions()
        least = poset.extremum(self._fixed_left[centrals].T, greatest=False, positions=centrals)
        return np.where(least >= 0, poset.indices[least], -1)

    @cached_property
    def eR_by_mask(self) -> Dict[int, Tuple[int, ...]]:
        """Map from the bitset of eR to the projections e producing it, read
        off each projection's row."""
        out: Dict[int, List[int]] = {}
        for e in self.poset.indices.tolist():
            mask = mask_from_bool(flags_of(self.ring.mul_row(e), self.ring.order))
            out.setdefault(mask, []).append(e)
        return {k: tuple(v) for k, v in out.items()}


def r_of_principal_ideals(scan: RingScan) -> List[int]:
    """Bitsets of r((a)) for every a, (a) the two-sided ideal a generates.

    (a) is the additive closure of {a} + aR + Ra + RaR, and the annihilator
    of a set is that of its additive closure. Left factors never shrink a
    right annihilator: s*a*y = s*(a*y) and s*a*r*y = s*(a*r*y), so r(Ra)
    contains r({a}) and r(RaR) contains r(aR). Hence r((a)) = r({a}) meet
    r(aR). ``ideal_annihilator_crosscheck`` compares this with the literal
    ideal.
    """
    return [ann & right for ann, right in zip(scan.rann, scan.r_of_aR)]


def _rows_per_block(m: int) -> int:
    """As many rows of m entries as fit in ``SCAN_BLOCK`` entries, at least one."""
    return max(1, SCAN_BLOCK // max(m, 1))


def _column(ring: StarRing, e: int) -> np.ndarray:
    """The column x -> x*e of a self-adjoint e: x*e = (e*x*)*, so it is
    e's row mirrored through the involution and no column is read."""
    star = ring.star_vector()
    return star[ring.mul_row(e)[star]]


def _zero_and_value_sets(
    rows, n: int, values: bool = True
) -> Tuple[List[int], Optional[List[int]]]:
    """For each a, the bitsets of {r : line_a[r] = 0} and, when ``values``
    is set (None otherwise), of the values in line_a, where ``rows(idx)``
    returns the block of lines of the elements idx as a fresh array, which
    is overwritten; it is asked for ``_lines_per_block(n)`` elements at a
    time.

    A block's zero sets come from one ``packbits`` of its zero flags; its
    value sets from one scatter of all its entries, each row offset by
    row * n, into a flat (block x n) flag array, then one ``packbits`` of
    that.
    """
    step = _lines_per_block(n)
    present = np.empty(step * n, dtype=bool) if values else None
    offsets = np.arange(0, step * n, n, dtype=np.int64)[:, None]
    zeros: List[int] = []
    sets: List[int] = []
    for start in range(0, n, step):
        lines = rows(np.arange(start, min(start + step, n)))
        k = len(lines)
        zeros += masks_from_rows(lines == 0)
        if values:
            lines += offsets[:k]
            flags = present[: k * n]
            flags[:] = False
            flags[lines.ravel()] = True
            sets += masks_from_rows(flags.reshape(k, n))
        del lines  # before the next block is built
    return zeros, sets if values else None


def _intersect_over(ann: List[int], mask: int, memo: Dict[int, int]) -> int:
    """Intersection of ann[s] over the members s of a bitset, memoized."""
    hit = memo.get(mask)
    if hit is None:
        hit = full_mask(len(ann))
        for s in iter_indices(mask):
            hit &= ann[s]
        memo[mask] = hit
    return hit


def _rp_candidates(scan: RingScan, x: int) -> List[int]:
    """The right-projection candidates of x, ascending: the projections e
    with xe = x and rann[x] inside rann[e]."""
    ann, fixed = scan.rann, scan._fixed_right
    return [
        int(e)
        for i, e in enumerate(scan.poset.indices)
        if fixed[i, x] and is_subset(ann[x], ann[int(e)])
    ]


def rp(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """Right projection of x: the unique projection e with xe = x and
    rann(x) contained in rann(e). Raises NoRightProjection or, should a
    *-ring axiom be broken upstream, AmbiguousRightProjection."""
    scan = scan or RingScan(ring)
    val = int(scan.rp_all[x])
    if val >= 0:
        return val
    if val == -1:
        raise NoRightProjection(ring.decode(x))
    cands = _rp_candidates(scan, x)
    raise AmbiguousRightProjection(ring.decode(x), [ring.decode(e) for e in cands])


def lp(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """Left projection of x: the unique projection f with fx = x and
    lann(x) contained in lann(f), read as rp(x*) (see RingScan). Raises
    NoLeftProjection or, should a *-ring axiom be broken upstream,
    AmbiguousLeftProjection naming the RP candidates at x*."""
    scan = scan or RingScan(ring)
    val = int(scan.lp_all[x])
    if val >= 0:
        return val
    if val == -1:
        raise NoLeftProjection(ring.decode(x))
    cands = _rp_candidates(scan, ring.star(x))
    raise AmbiguousLeftProjection(ring.decode(x), [ring.decode(e) for e in cands])


def rp_via_star(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """rp(x* x), asserted equal to rp(x).

    The equality is a theorem for proper involutions; on rings where it
    fails the mismatch is surfaced as VerificationFailed rather than
    silently returning either side.
    """
    scan = scan or RingScan(ring)
    xs = ring.mul(ring.star(x), x)
    via = rp(ring, xs, scan)
    direct = rp(ring, x, scan)
    if via != direct:
        raise VerificationFailed(
            "rp-via-star-mismatch",
            (ring.decode(x), ring.decode(via), ring.decode(direct)),
        )
    return via


def central_cover(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """C(x): least central projection h with hx = x."""
    scan = scan or RingScan(ring)
    val = int(scan.cover_all[x])
    if val < 0:
        raise NoCentralCover(ring.decode(x))
    return val


def largest_eigen_projections(
    algebra: ScalarAlgebra,
    a: np.ndarray,
    lam: np.ndarray,
    central_only: bool = False,
    scan: Optional[RingScan] = None,
) -> np.ndarray:
    """For each i, the greatest projection g with a[i] g = lam[i].g (g
    central when asked), or -1 when the qualifying set has no greatest
    element. Every lam[i] is a nonzero scalar index.

    A block of rows at a time, one ``mul_pairs`` grid tests every candidate
    projection against the block's a[i], and ``ProjectionPoset.extremum``
    picks each row's greatest."""
    scan = scan or RingScan(algebra.ring)
    poset = scan.poset
    a, lam = np.asarray(a, dtype=np.int64), np.asarray(lam, dtype=np.int64)
    positions = _eigen_positions(poset, central_only)
    out = np.empty(len(a), dtype=np.int64)
    step = _rows_per_block(len(positions))
    for start in range(0, len(a), step):
        part = slice(start, start + step)
        holds = _eigen_holds(algebra, a[part], lam[part], poset.indices[positions])
        top = poset.extremum(holds, greatest=True, positions=positions)
        out[part] = np.where(top >= 0, poset.indices[top], -1)
    return out


def largest_eigen_projection(
    algebra: ScalarAlgebra,
    a: int,
    lam: int,
    central_only: bool = False,
    scan: Optional[RingScan] = None,
) -> int:
    """Greatest projection g with a*g = lam.g (g central when asked): row a
    of ``largest_eigen_projections``.

    g = 0 always qualifies, so the candidate set is never empty, but a
    greatest element may still not exist; that raises NoGreatestElement,
    which names the qualifying projections in ascending order.
    """
    if lam == 0:
        raise ValueError("lam must be a nonzero scalar index")
    ring = algebra.ring
    scan = scan or RingScan(ring)
    top = int(largest_eigen_projections(algebra, [a], [lam], central_only, scan)[0])
    if top < 0:
        gs = scan.poset.indices[_eigen_positions(scan.poset, central_only)]
        holds = _eigen_holds(algebra, np.array([a]), np.array([lam]), gs)[0]
        raise NoGreatestElement([ring.decode(int(g)) for g in gs[holds]])
    return top


def _eigen_positions(poset: ProjectionPoset, central_only: bool) -> np.ndarray:
    return poset.central_positions() if central_only else np.arange(len(poset))


def _eigen_holds(algebra: ScalarAlgebra, a: np.ndarray, lam: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """holds[i, j] <=> a[i] gs[j] = lam[i].gs[j], from one mul_pairs grid."""
    return algebra.ring.mul_pairs(a[:, None], gs) == algebra.action[lam[:, None], gs]


@dataclass(frozen=True)
class ScalarDominationReport:
    """Certificate for the scalar domination conditions.

    For each nonzero lam (by index), ``selections[lam]`` is the chosen
    dominating projection e_lam and ``least_unique[lam]`` records whether the
    residual upper-bound set had a least element (when False, the lowest
    index member was picked). ``failure`` is the first (lam, x) whose
    LP(x) / C(x) emptied the running upper-bound set; the scan stops there.
    """

    kind: str  # "lp" or "central-cover"
    ok: bool
    selections: Dict[int, int]
    least_unique: Dict[int, bool]
    failure: Optional[Tuple[int, int]]

    def to_json(self, algebra: ScalarAlgebra) -> dict:
        K, R = algebra.scalars, algebra.ring
        return {
            "kind": self.kind,
            "ok": self.ok,
            "selections": [
                {
                    "lam": K.decode(lam),
                    "projection": R.decode(e),
                    "least_unique": self.least_unique[lam],
                }
                for lam, e in sorted(self.selections.items())
            ],
            "failure": None
            if self.failure is None
            else {
                "lam": K.decode(self.failure[0]),
                "x": R.decode(self.failure[1]),
            },
        }


def _domination_report(
    algebra: ScalarAlgebra,
    kind: str,
    scan: Optional[RingScan],
) -> ScalarDominationReport:
    """For each nonzero lam, in turn, the x with lam.x = 0 are read in
    ascending order, and the upper-bound set of their LP(x) (or C(x)) is
    narrowed one x at a time. Only an x whose LP(x) is new narrows it, so
    the running sets are one logical_and.accumulate over the distinct
    LP(x) rows of ``leq``, in order of first appearance; the first empty
    one names the failure. An x with no LP(x) raises, unless the set
    emptied before it. The selection is the least upper bound, from
    ``ProjectionPoset.extremum``, or the lowest-index bound when there is
    no least one."""
    ring = algebra.ring
    scan = scan or RingScan(ring)
    poset = scan.poset
    table = scan.lp_all if kind == "lp" else scan.cover_all
    selections: Dict[int, int] = {}
    unique: Dict[int, bool] = {}
    for lam in range(1, algebra.scalars.order):
        killed = np.flatnonzero(algebra.action_row(lam) == 0)
        lows = table[killed]
        missing = np.flatnonzero(lows < 0)
        read = len(killed) if not len(missing) else int(missing[0])
        low_pos = poset.position(lows[:read])
        first = first_positions(low_pos, len(poset))
        new = np.flatnonzero(first[low_pos] == np.arange(read))  # first appearances
        running = np.logical_and.accumulate(poset.leq[low_pos[new]], axis=0)
        emptied = np.flatnonzero(~running.any(axis=1))
        if len(emptied):
            x = int(killed[new[int(emptied[0])]])
            return ScalarDominationReport(kind, False, selections, unique, (lam, x))
        if len(missing):
            x = int(killed[read])
            if int(lows[read]) == -2:
                raise AmbiguousLeftProjection(ring.decode(x), [])
            if kind == "lp":
                raise NoLeftProjection(ring.decode(x))
            raise NoCentralCover(ring.decode(x))
        bounds = running[-1] if len(new) else np.ones(len(poset), dtype=bool)
        least = int(poset.extremum(bounds[None], greatest=False)[0])
        unique[lam] = least >= 0
        selections[lam] = int(poset.indices[least if least >= 0 else int(np.argmax(bounds))])
    return ScalarDominationReport(kind, True, selections, unique, None)


def condition3_witnesses(
    algebra: ScalarAlgebra, scan: Optional[RingScan] = None
) -> ScalarDominationReport:
    """For each nonzero lam, a projection dominating LP(x) whenever lam.x = 0."""
    return _domination_report(algebra, "lp", scan)


def condition_beta_witnesses(
    algebra: ScalarAlgebra, scan: Optional[RingScan] = None
) -> ScalarDominationReport:
    """Central-cover variant: e_lam dominates C(x) whenever lam.x = 0."""
    return _domination_report(algebra, "central-cover", scan)
