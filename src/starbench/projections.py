"""Projections, the projection poset, and projection-valued operators.

A projection is a self-adjoint idempotent (e = e* = e^2). The poset order is
e <= f iff ef = e = fe; in a *-ring one side gives the other, as ef = e
gives fe = f*e* = (ef)* = e* = e, so the order is read off ef alone.

:class:`RingScan` bundles the per-ring caches every scan needs: annihilator
bitsets for single elements, r(aR) for every a, the projection poset,
and precomputed rp/lp/central-cover tables. Classifier and verification
code shares one scan per ring.

Operator conventions (all searches ascend element indices, so results and
witnesses are the lowest-index ones):

* rp(x): the projection e with xe = x and (xy = 0 implies ey = 0). Given
  xe = x, r(e) lies in r(x), so this is the projection fixing x on the
  right whose right annihilator equals x's. It is unique: two such, e and
  f, give e - ef in r(x) = r(e), so e = ef, and likewise f = fe, so
  e = (ef)* = fe = f.
* lp(x): mirror; rp(x*) read at the adjoint.
* central_cover(x): least central projection h with hx = x.
* largest_eigen_projections(A, a, lam): for arrays of (a, lam), lam
  nonzero, the greatest projection g with a g = lam.g (optionally among
  central projections only), or -1 where the qualifying set, which always
  holds g = 0, has no greatest element.

Every greatest or least element, of the central projections fixing x or
of the eigen-projections, comes from one primitive,
``ProjectionPoset.extremum``, which answers a whole boolean matrix of
candidate sets at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import ScalarAlgebra
from .bitsets import full_mask, indices_of, masks_from_rows
from .errors import (
    NoCentralCover,
    NoLeftProjection,
    NoRightProjection,
)
from .rings import SCAN_BLOCK, StarRing, _lines_per_block


@dataclass(frozen=True)
class Projection:
    index: int
    central: bool


class ProjectionPoset:
    """All projections of a ring, ordered by e <= f iff ef = e (= fe).

    One pass reads each projection's row, ``_lines_per_block(n)`` rows at
    a time through ``mul_rows``, and the rest is read off those blocks:

    * ``leq[i, j]`` <=> e_i <= e_j, i.e. row_i[e_j] = e_i;
    * ``central_flags[i]``: e_i commutes with every additive generator g
      (then, by distributivity, with every sum of them), where
      g e_i = (e_i g*)* is row_i at g* read through the involution;
    * ``fixers[i, x]`` <=> e_i x = x; x e_i = x iff e_i x* = x*, so the
      right fixers are the gather ``fixers[:, star]``;
    * ``eR[i]``, the bitset of e_i R: the fixers row i, as x is in eR
      iff ex = x for an idempotent e (x = ey gives ex = eey = x).
    """

    def __init__(self, ring: StarRing):
        self.ring = ring
        n = ring.order
        idx = np.arange(n, dtype=np.int64)
        star = ring.star_vector()
        cand = np.flatnonzero(star == idx)
        self.indices = cand[ring.mul_pairs(cand, cand) == cand].astype(np.int64)
        p = len(self.indices)

        gens = np.array(ring.generators, dtype=np.int64)
        self.leq = np.empty((p, p), dtype=bool)
        self.central_flags = np.empty(p, dtype=bool)
        self.fixers = np.empty((p, n), dtype=bool)
        step = _lines_per_block(n)
        for start in range(0, p, step):
            es = self.indices[start : start + step]
            rows = ring.mul_rows(es)
            part = slice(start, start + len(es))
            self.leq[part] = rows[:, self.indices] == es[:, None]
            self.central_flags[part] = (rows[:, gens] == star[rows[:, star[gens]]]).all(axis=1)
            self.fixers[part] = rows == idx
        self.eR: List[int] = masks_from_rows(self.fixers)

    def __len__(self) -> int:
        return len(self.indices)

    def items(self) -> List[Projection]:
        return [
            Projection(int(e), bool(c))
            for e, c in zip(self.indices, self.central_flags)
        ]

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

    Everything is computed lazily and exactly once. ``rann`` and
    ``r_of_aR`` of a matrix ring, tabled or not, are read off its row
    vectors (``StarRing.right_annihilators``; see
    :class:`~starbench.rings._MatrixBackend`) and read no row. On any other
    ring ``rann`` comes from one pass over ``mul_rows``, a block of rows at
    a time, and ``r_of_aR`` as below. The projection poset comes from one
    pass over the projections' rows, which also gives each projection's
    fixers and eR (see :class:`ProjectionPoset`); ``row_sets`` takes a
    row pass of its own, and ``lann`` and ``col_sets`` one more, over the
    rows of the adjoints (see ``_col_pass``).

    ``r_of_aR`` holds r(aR) for every a: aR is the additive span of aG, G
    the additive generators (left distributivity), and r(S) = r(span S)
    (right distributivity), so r(aR) is the meet of rann[a*g] over g in G,
    n.|G| big-int ANDs.

    ``rp_all[x]`` is the projection e with xe = x and rann[e] = rann[x]
    (see the module docstring), found for every x at once: each distinct
    ``rann`` bitset gets an integer label, and the right fixers of each
    projection, its left fixers mirrored through the involution, are met
    with the elements of its label.

    The classifiers and rp/lp read no left side: (y r a)* = a* r* y*, so y
    is in l(Ra) iff y* is in r(a*R), and Rf = (fR)* for a projection f;
    hence l(Ra) = Rf iff r(a*R) = fR. Likewise a projection f is an LP
    candidate of x iff it is an RP candidate of x*, so lp_all[x] =
    rp_all[x*]. So the left side is the right one read at the adjoint,
    and ``lann``/``col_sets`` are read that way too; no verb reads them.

    ``r_of`` intersects ``rann`` over a set of elements, memoized by the
    set's bitset. The arrays returned by rp_all/lp_all/cover_all use -1
    for "no such projection".
    """

    def __init__(self, ring: StarRing):
        self.ring = ring
        self._r_memo: Dict[int, int] = {}

    def r_of(self, mask: int) -> int:
        """Bitset of r(S) = {y : s*y = 0 for every s in S}, S given by
        ``mask``; the whole ring for the empty set."""
        return _intersect_over(self.rann, mask, self._r_memo)

    @cached_property
    def _col_pass(self) -> Tuple[List[int], Optional[List[int]]]:
        """lann and col_sets from one pass over the rows of the adjoints, a
        block at a time: entry y of ``star[mul_rows(star[idx])][:, star]``
        is (s* y*)* = y s for s in idx, so each line is a column."""
        ring, n = self.ring, self.ring.order
        star = ring.star_vector()
        return _zero_and_value_sets(lambda idx: star[ring.mul_rows(star[idx])][:, star], n)

    @cached_property
    def rann(self) -> List[int]:
        """rann[s] = bitset of the right annihilator {y : s*y = 0}."""
        read = self.ring.right_annihilators()
        if read is not None:
            return read
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
        """r_of_aR[a] = bitset of r(aR) = {y : a*r*y = 0 for every r}: read
        off a matrix ring's row vectors, or else the meet of rann[a*g] over
        the additive generators g (the whole ring when there are none),
        from one ``mul_pairs`` of shape (n, |G|)."""
        ring = self.ring
        read = ring.right_annihilators(of_right_ideal=True)
        if read is not None:
            return read
        n, gens = ring.order, np.array(ring.generators, dtype=np.int64)
        members = ring.mul_pairs(np.repeat(np.arange(n), len(gens)), np.tile(gens, n))
        rann, whole = self.rann, full_mask(n)
        rows = members.reshape(n, len(gens)).tolist()
        return [reduce(and_, map(rann.__getitem__, row), whole) for row in rows]

    @cached_property
    def poset(self) -> ProjectionPoset:
        return ProjectionPoset(self.ring)

    @cached_property
    def rp_all(self) -> np.ndarray:
        """rp_all[x] = index of RP(x), -1 when there is none: the projection
        e_i with x e_i = x, read as ``fixers[i, x*]``, whose rann bitset
        has x's label."""
        poset = self.poset
        label: Dict[int, int] = {}
        labels = np.array([label.setdefault(m, len(label)) for m in self.rann], dtype=np.int64)
        match = poset.fixers[:, self.ring.star_vector()] & (
            labels[poset.indices][:, None] == labels
        )
        return np.where(match.any(axis=0), poset.indices[match.argmax(axis=0)], -1)

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
        least = poset.extremum(poset.fixers[centrals].T, greatest=False, positions=centrals)
        return np.where(least >= 0, poset.indices[least], -1)

    @cached_property
    def eR_by_mask(self) -> Dict[int, int]:
        """Map from the bitset of eR to the projection e producing it. It
        is one e: e in fR and f in eR give e = fe and f = ef, so
        e = (fe)* = ef = f."""
        return dict(zip(self.poset.eR, self.poset.indices.tolist()))


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


def _zero_and_value_sets(
    rows, n: int, values: bool = True
) -> Tuple[List[int], Optional[List[int]]]:
    """For each a, the bitsets of {r : line_a[r] = 0} and, when ``values``
    is set (None otherwise), of the values in line_a, where ``rows(idx)``
    returns the block of lines of the elements idx; it is asked for
    ``_lines_per_block(n)`` elements at a time. A block's zero sets come
    from one ``packbits`` of its zero flags, its value sets from
    :func:`_value_sets`."""
    step = _lines_per_block(n)
    zeros: List[int] = []
    sets: List[int] = []
    for start in range(0, n, step):
        lines = rows(np.arange(start, min(start + step, n)))
        zeros += masks_from_rows(lines == 0)
        if values:
            sets += _value_sets(lines, n)
        del lines  # before the next block is built
    return zeros, sets if values else None


def _value_sets(lines: np.ndarray, n: int) -> List[int]:
    """The bitset of the values in each line of a (k, n) block of element
    indices: one scatter of every entry, each line offset by its row
    times n, into a flat (k x n) flag array, then one ``packbits``."""
    k = len(lines)
    flags = np.zeros(k * n, dtype=bool)
    flags[(lines + np.arange(0, k * n, n, dtype=np.int64)[:, None]).ravel()] = True
    return masks_from_rows(flags.reshape(k, n))


def _intersect_over(ann: List[int], mask: int, memo: Dict[int, int]) -> int:
    """Intersection of ann[s] over the members s of a bitset, memoized."""
    hit = memo.get(mask)
    if hit is None:
        hit = full_mask(len(ann))
        for s in indices_of(mask):
            hit &= ann[s]
        memo[mask] = hit
    return hit


def rp(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """Right projection of x: the unique projection e with xe = x and
    rann(x) contained in rann(e). Raises NoRightProjection."""
    scan = scan or RingScan(ring)
    val = int(scan.rp_all[x])
    if val < 0:
        raise NoRightProjection(ring.decode(x))
    return val


def lp(ring: StarRing, x: int, scan: Optional[RingScan] = None) -> int:
    """Left projection of x: the unique projection f with fx = x and
    lann(x) contained in lann(f), read as rp(x*) (see RingScan). Raises
    NoLeftProjection."""
    scan = scan or RingScan(ring)
    val = int(scan.lp_all[x])
    if val < 0:
        raise NoLeftProjection(ring.decode(x))
    return val


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


def _eigen_positions(poset: ProjectionPoset, central_only: bool) -> np.ndarray:
    return poset.central_positions() if central_only else np.arange(len(poset))


def _eigen_holds(algebra: ScalarAlgebra, a: np.ndarray, lam: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """holds[i, j] <=> a[i] gs[j] = lam[i].gs[j], from one mul_pairs grid."""
    return algebra.ring.mul_pairs(a[:, None], gs) == algebra.action[lam[:, None], gs]
