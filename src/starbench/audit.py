"""The audit of the *-ring axioms: :func:`validate_star_ring` proves them
from a ring's operations, over every element, and names the first
violation with a witness.

Each law has one scan, which takes the index sets it loops over: with
some coordinates restricted to the ring's additive generators G, and the
distributive laws' y to the subgroups that the walk picking G builds, it
is a proof, in O(n^2 |G|) for the ring laws and O(n |G|) for the rest
(see :func:`_first_ring_law_violation` and
:func:`_first_star_law_violation`), and only after a hit does a scan run
over every element, to name the first witness. The scans read each
operation a block of rows or columns at a time, as the ``_Lines`` that
``rings._ring_lines`` serves: from a tabled ring's own tables (int16 up
to order 2^15, int32 past it, ``rings.index_dtype``), and from a
call-based ring's backend blocks, so that the audit of a call-based ring
builds no table and holds one block of lines at a time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import AxiomViolation
from .rings import (
    StarRing,
    _as_index_array,
    _lines_per_block,
    _ring_lines,
    _table_pairs,
)


def _blocks(k: int, n: int) -> List[slice]:
    """Slices that cover 0..k-1 in order, ``_lines_per_block(n)`` at a time,
    for lines (or line temporaries) of n entries."""
    step = _lines_per_block(n)
    return [slice(start, min(start + step, k)) for start in range(0, k, step)]


def _first_true(bad: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, column) of the first True entry of a 2-D block in C order."""
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), bad.shape[1])


def _first_hit(grid: Callable, k: int, n: int) -> Optional[Tuple[int, int]]:
    """(row, column) of the first True entry, in row-major order, of a grid
    of k rows of n entries, else None. ``grid(rows)`` returns the rows of a
    slice, taken a block (see :func:`_blocks`) at a time, so a hit ends
    the scan."""
    for p in _blocks(k, n):
        hit = _first_true(grid(p))
        if hit is not None:
            return p.start + hit[0], hit[1]
    return None


def _first_assoc_violation(op, mids=None, ends=None) -> Optional[Tuple[int, int, int]]:
    """The lexicographically first (x, y, z) with op(op(x,y),z) !=
    op(x,op(y,z)), y in ``mids`` and x, z in ``ends`` (ascending index
    sets; every element where None), else None.

    A block of rows x at a time: the rows op(x, .) are read once per
    block, then one (x, z) grid per y. Every earlier block holds no
    violation, so the first block that holds one holds the first triple.
    """
    n = op.order
    xs = np.arange(n) if ends is None else _as_index_array(ends)
    cols = slice(None) if ends is None else xs
    for p in _blocks(len(xs), n):
        rows = p if ends is None else xs[p]
        x_rows = op.rows(rows)
        hits = []
        for y in range(n) if mids is None else mids:
            y = int(y)
            xy_rows = op.rows(op.cols([y])[0][rows])
            hit = _first_true(xy_rows[:, cols] != x_rows[:, op.rows([y])[0][cols]])
            if hit is not None:
                hits.append((int(xs[p][hit[0]]), y, int(xs[hit[1]])))
        if hits:
            return min(hits)
    return None


def _first_distrib_violation(
    add, mul, zs=None, xs=(None, None), ys=None
) -> Optional[Tuple[int, int, int, int]]:
    """(side, x, y, z) of the first violation of distributivity in
    lexicographic (x, y, z, side) order, x in ``xs[side]``, z in ``zs`` and
    y in ``ys[k]`` for the k-th z (ascending index sets; every element
    where None, and ``ys`` None is every y for each z); side 0=left,
    1=right. None when there is none.

    Left law:  x*(y+z) == x*y + x*z
    Right law: (y+z)*x == y*x + z*x
    At a given (x, y, z) the left law comes first.

    One law at a time, a block of rows x at a time: the products x*y (or
    y*x) are read once per block, then one (x, y) grid per z, whose sums
    row t reads off the column of + at its x*z (z*x); the first block that
    holds a violation holds the law's first one. The right law then scans
    x only up to the left law's first hit.
    """
    n = add.order
    zs = range(n) if zs is None else [int(z) for z in zs]
    # every y as a slice, so that its columns are views
    ys = [slice(None) if y is None else _as_index_array(y) for y in ys or [None] * len(zs)]
    block_rows = np.arange(_lines_per_block(n), dtype=np.int32)[:, None]
    found = []  # (x, y, z, side) of each law's first violation
    for side, lines in enumerate((mul.rows, mul.cols)):
        every = np.arange(n) if xs[side] is None else _as_index_array(xs[side])
        k = int(np.searchsorted(every, found[0][0], "right")) if found else len(every)
        for p in _blocks(k, n):
            prods = lines(p if xs[side] is None else every[p])  # x*y (y*x)
            hits = []
            for z, y_set in zip(zs, ys):
                yz = add.cols([z])[0][y_set]  # y + z
                # x*y + x*z (y*x + z*x)
                sums = _table_pairs(add.cols(prods[:, z]), block_rows[: len(prods)], prods[:, y_set])
                hit = _first_true(prods[:, yz] != sums)
                if hit is not None:
                    y = np.arange(n)[y_set][hit[1]]
                    hits.append((int(every[p.start + hit[0]]), int(y), z, side))
            if hits:
                found.append(min(hits))
                break
    if not found:
        return None
    x, y, z, side = min(found)
    return side, x, y, z


def _first_commute_violation(add, xs=None) -> Optional[Tuple[int, int]]:
    """The first (x, y) in C order with x+y != y+x, x in ``xs`` (an
    ascending index set; every element where None), else None."""
    xs = np.arange(add.order) if xs is None else _as_index_array(xs)
    hit = _first_hit(lambda p: add.rows(xs[p]) != add.cols(xs[p]), len(xs), add.order)
    return None if hit is None else (int(xs[hit[0]]), hit[1])


def _first_star_additive_violation(add, star, xs=None) -> Optional[Tuple[int, int]]:
    """The first (x, y) in C order with (x+y)* != x* + y*, x in ``xs`` (an
    ascending index set; every element where None), else None."""
    xs = np.arange(add.order) if xs is None else _as_index_array(xs)
    hit = _first_hit(
        lambda p: star[add.rows(xs[p])] != add.rows(star[xs[p]])[:, star],
        len(xs),
        add.order,
    )
    return None if hit is None else (int(xs[hit[0]]), hit[1])


def _first_antimult_violation(mul, star, xs=None) -> Optional[Tuple[int, int]]:
    """The first (x, y) in C order with (x*y)* != y* x*, x and y in ``xs``
    (an ascending index set; every element where None), else None."""
    xs = np.arange(mul.order) if xs is None else _as_index_array(xs)
    xs_star = star[xs]

    def grid(p):  # (x*y)* against y* x*, for the block's x and every y
        return star[mul.pairs(xs[p, None], xs)] != mul.pairs(xs_star, xs_star[p, None])

    hit = _first_hit(grid, len(xs), len(xs))
    return None if hit is None else (int(xs[hit[0]]), int(xs[hit[1]]))


def _first_ring_law_violation(
    add, mul, levels=None
) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """(axiom, indices) of the first failing ring law, in a fixed order:
    additive associativity, multiplicative associativity, distributivity;
    each scan names its lexicographically first violating triple.

    With ``levels`` None every triple is scanned, in O(n^3). With
    ``levels`` the levels of the walk that picks the ascending greedy
    additive generating set G = (g1, ..., gk)
    (:attr:`StarRing.generator_levels`), whose gi is the lowest element of
    level i, the scans take the restricted coordinates below, in
    O(n^2 |G|): a hit is still a real violation, and None is a proof over
    every element. It needs 0 to be a two-sided identity of +, every
    x + (-x) to be 0 and g + x = x + g for g in G, which the audit checks
    first, in O(n |G|).
    Every element is a left-normed sum (...((0 + g1) + g2) ...) + gk over
    G, so a set that holds 0 and G and is closed under + is R:

    1. + with y in G (Light's test): the a with (x+a)+y == x+(a+y) for all
       x, y are closed under +, so + is associative. Then the b with b+x ==
       x+b for all x are closed under +, as (a+b)+x = a+(x+b) = (x+a)+b,
       so + commutes, and the elements of level at most i form H_i, the
       subgroup that g1, ..., gi span.
    2. Distributivity with z = gi and y in H_i, over every x for the right
       law and x in G for the left: n sum|H_i| < 2n^2 sums. For each x,
       f(y) = y*x is additive on H_i once it is on H_{i-1} and f(c+gi) =
       f(c) + f(gi) for every c in H_i, as H_i is the h + m gi with h in
       H_{i-1}; c = 0 gives f(0) = 0. So the right law holds, and so does
       the left one: y -> x*y is additive for x in G, and by the right law
       the x for which it is additive are closed under +. Where H_i is R,
       as for gk, y runs over every element.
    3. * with x, y, z in G: under both distributive laws the associator
       (xy)z - x(yz) is additive in each argument, so it vanishes
       everywhere once it vanishes on G^3.
    """
    gens = chain = None
    if levels is not None:
        gens = np.unique(levels, return_index=True)[1][1:]
        subgroups = (np.flatnonzero(levels <= i) for i in range(1, len(gens) + 1))
        chain = [h if len(h) < len(levels) else None for h in subgroups]
    hit = _first_assoc_violation(add, mids=gens)
    if hit is not None:
        return "add-associative", hit
    hit = _first_assoc_violation(mul, mids=gens, ends=gens)
    if hit is not None:
        return "mul-associative", hit
    hit = _first_distrib_violation(add, mul, zs=gens, xs=(gens, None), ys=chain)
    if hit is not None:
        side, x, y, z = hit
        return ("left-distributive" if side == 0 else "right-distributive"), (x, y, z)
    return None


def _first_ring_axiom_violation(add, mul, neg) -> Tuple[str, Tuple[int, ...]]:
    """(axiom, indices) of the first failing ring axiom over every element,
    in the audit's order: 0 a left identity, + commutative, x + (-x) = 0,
    then :func:`_first_ring_law_violation`. Run only on a ring that fails
    one, to name the first witness."""
    idx = np.arange(add.order)
    row0 = add.rows([0])[0]
    if not np.array_equal(row0, idx):
        return "zero-identity", (int(np.argmax(row0 != idx)),)
    hit = _first_commute_violation(add)
    if hit is not None:
        return "add-commutative", hit
    inv = add.pairs(idx, neg)
    if inv.any():
        return "add-inverse", (int(np.argmax(inv != 0)),)
    # + commutes: its columns are its rows
    return _first_ring_law_violation(add._replace(cols=add.rows), mul)


def _first_star_law_violation(
    add, mul, star: np.ndarray, gens=None
) -> Optional[Tuple[str, Tuple[int, int]]]:
    """(axiom, (x, y)) of the first failing star law, star additivity
    before anti-multiplicativity, each naming its first pair in C order;
    None when both hold.

    With ``gens`` None every pair is scanned, in O(n^2). With ``gens`` an
    ascending additive generating set G, in O(n |G|): a hit is still a
    real violation, and None is a proof over every element. It needs the
    ring laws, which the audit proves first, and 0* = 0:

    1. Star additivity with x in {0} and G: the x with (x+y)* = x* + y*
       for all y are closed under +, as ((a+b)+y)* = (a+(b+y))* =
       a* + (b* + y*) and (a+b)* = a* + b*. 0 is among them when 0* = 0;
       it is scanned rather than assumed, and on the zero ring, where G
       is empty, it is the only x.
    2. Anti-multiplicativity with x, y in G: under distributivity and star
       additivity, (xy)* - y*x* is additive in each argument, so it
       vanishes everywhere once it vanishes on G x G.
    """
    xs = None if gens is None else [0, *gens]
    hit = _first_star_additive_violation(add, star, xs)
    if hit is not None:
        return "star-additive", hit
    hit = _first_antimult_violation(mul, star, gens)
    if hit is not None:
        return "star-anti-multiplicative", hit
    return None


def validate_star_ring(ring: StarRing) -> dict:
    """Exhaustively audit the *-ring axioms; raises AxiomViolation on failure.

    Checks run in a fixed order so the first reported violation is
    deterministic. The ring laws and the star laws are proved over every
    element, not sampled, on the ring's additive generators and the walk
    that picks them, by :func:`_first_ring_law_violation` and
    :func:`_first_star_law_violation`; only after a hit do the checks run
    over every element, to report the first violation. Every check reads
    the ring's lines a block at a time (:func:`_ring_lines`): a tabled
    ring's own tables, a call-based ring's backend blocks, so that no
    table is built. A call-based ring with order^2 above
    ``VALIDATION_TABLE_CAP`` is refused before any check. Returns a
    summary dict on success.
    """
    add, mul = _ring_lines(ring)  # refuses a call-based ring past the cap
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    star = ring.star_vector()
    neg = ring.neg_vector()

    def witness(*indices: int) -> tuple:
        return tuple(ring.decode(int(i)) for i in indices)

    # 0 is a two-sided identity, x + (-x) = 0 and g + x = x + g for g in
    # G, the premises of _first_ring_law_violation's proof: the columns of
    # + at G are its rows (and every column is, once + associates). G is
    # read only once 0 is known to be the identity: the walk that picks
    # it flags each s by the shift 0 + s, and where 0 + s is not s it can
    # pick the same s again and again, and never end
    if not (
        np.array_equal(add.rows([0])[0], idx)
        and np.array_equal(add.cols([0])[0], idx)
        and not add.pairs(idx, neg).any()
        and _first_commute_violation(add, ring.generators) is None
        and _first_ring_law_violation(
            add._replace(cols=add.rows), mul, ring.generator_levels
        ) is None
    ):
        # a real violation; name the first over every element
        axiom, hit = _first_ring_axiom_violation(add, mul, neg)
        raise AxiomViolation(axiom, witness(*hit))
    checks = ["zero-identity", "add-commutative", "add-inverse"]
    checks += ["add-associative", "mul-associative", "distributive"]

    if not np.array_equal(star[star], idx):
        raise AxiomViolation(
            "star-involutive", witness(int(np.argmax(star[star] != idx)))
        )
    checks.append("star-involutive")

    if _first_star_law_violation(add, mul, star, ring.generators) is not None:
        # a real violation; name the first over every pair
        axiom, hit = _first_star_law_violation(add, mul, star)
        raise AxiomViolation(axiom, witness(*hit))
    checks.extend(("star-additive", "star-anti-multiplicative"))

    if ring.unity is not None:
        e = ring.unity
        if not (
            np.array_equal(mul.rows([e])[0], idx)
            and np.array_equal(mul.cols([e])[0], idx)
        ):
            raise AxiomViolation("unity", witness(e))
        checks.append("unity")

    return {"ring": ring.label, "order": n, "checks": checks, "ok": True}
