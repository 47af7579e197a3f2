"""The audit of the *-ring axioms: :func:`validate_star_ring` proves them
from a ring's operations, over every element, and names the first
violation with a witness.

Each ring law and each star law has one scan, which takes the index sets
it loops over: with some coordinates restricted to the ring's additive
generators G it is a proof, in O(n^2 |G|) for a ring law (see
:func:`_first_ring_law_violation`) and in O(n |G|) for a star law (see
:func:`_first_star_law_violation`), and only after a hit does it run over
every element, to name the first witness. Of the distributive laws only
the right one takes O(n^2 |G|), with z in G; the left one is then proved
with x and z in G, in O(n |G|^2), as 0*a = 0 by the right law, the left
defect x*(y+z) - x*y - x*z is additive in x, and the z on which it
vanishes are closed under +. The scans read each operation a block of
rows or columns at a time, as the ``_Lines`` that ``rings._ring_lines``
serves: from a tabled ring's own tables (int16 up to order 2^15, int32
past it, ``rings.index_dtype``), and from a call-based ring's backend
blocks, so that the audit of a call-based ring builds no table and holds
one block of lines at a time. The scans also take a dense
table, table[i, j] = index of op(i, j), which they wrap in ``_Lines``
themselves.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import AxiomViolation
from .rings import (
    StarRing,
    _as_index_array,
    _Lines,
    _lines_per_block,
    _ring_lines,
    _table_lines,
    _table_pairs,
)


def _as_lines(op) -> _Lines:
    """``op`` itself, or the lines of ``op`` given as a raw table: the scans
    below take either."""
    return op if isinstance(op, _Lines) else _table_lines(np.asarray(op))


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
    sets; every element where None), else None. ``op`` is a
    :class:`_Lines` or a table.

    A block of rows x at a time: the rows op(x, .) are read once per
    block, then one (x, z) grid per y. Every earlier block holds no
    violation, so the first block that holds one holds the first triple.
    """
    op = _as_lines(op)
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
    add, mul, zs=None, xs=(None, None)
) -> Optional[Tuple[int, int, int, int]]:
    """(side, x, y, z) of the first violation of distributivity in
    lexicographic (x, y, z, side) order, x in ``xs[side]`` and z in ``zs``
    (ascending index sets; every element where None); side 0=left,
    1=right. None when there is none. ``add`` and ``mul`` are
    :class:`_Lines` or tables.

    Left law:  x*(y+z) == x*y + x*z
    Right law: (y+z)*x == y*x + z*x
    At a given (x, y, z) the left law comes first.

    One law at a time, a block of rows x at a time: the products x*y (or
    y*x) are read once per block, then one (x, y) grid per z; the first
    block that holds a violation holds the law's first one. The right law
    then scans x only up to the left law's first hit.
    """
    add, mul = _as_lines(add), _as_lines(mul)
    n = add.order
    block_rows = np.arange(_lines_per_block(n), dtype=np.int32)[:, None]
    found = []  # (x, y, z, side) of each law's first violation
    for side, lines in enumerate((mul.rows, mul.cols)):
        every = np.arange(n) if xs[side] is None else _as_index_array(xs[side])
        k = int(np.searchsorted(every, found[0][0], "right")) if found else len(every)
        for p in _blocks(k, n):
            prods = lines(p if xs[side] is None else every[p])  # x*y (y*x)
            hits = []
            for z in range(n) if zs is None else zs:
                z = int(z)
                yz = add.cols([z])[0]  # y + z for every y
                # x*y + x*z (y*x + z*x): row t read off the column of + at
                # its x*z (z*x)
                columns = add.cols(prods[:, z])
                sums = _table_pairs(columns, block_rows[: len(prods)], prods)
                hit = _first_true(prods[:, yz] != sums)
                if hit is not None:
                    hits.append((int(every[p.start + hit[0]]), hit[1], z, side))
            if hits:
                found.append(min(hits))
                break
    if not found:
        return None
    x, y, z, side = min(found)
    return side, x, y, z


def _first_star_additive_violation(add, star, xs=None) -> Optional[Tuple[int, int]]:
    """The first (x, y) in C order with (x+y)* != x* + y*, x in ``xs`` (an
    ascending index set; every element where None), else None."""
    add = _as_lines(add)
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
    mul = _as_lines(mul)
    xs = np.arange(mul.order) if xs is None else _as_index_array(xs)
    xs_star = star[xs]

    def grid(p):  # (x*y)* against y* x*, for the block's x and every y
        return star[mul.pairs(xs[p, None], xs)] != mul.pairs(xs_star, xs_star[p, None])

    hit = _first_hit(grid, len(xs), len(xs))
    return None if hit is None else (int(xs[hit[0]]), int(xs[hit[1]]))


def _first_ring_law_violation(
    add, mul, gens=None
) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """(axiom, indices) of the first failing ring law, in a fixed order:
    additive associativity, multiplicative associativity, distributivity;
    each scan names its lexicographically first violating triple.

    With ``gens`` None every triple is scanned, in O(n^3). With ``gens`` an
    ascending additive generating set G, the scans take the restricted
    coordinates below, in O(n^2 |G|): a hit is still a real violation, and
    None is a proof over every element. It needs 0 to be an additive
    identity, + to be commutative and every element to have a negative,
    which the audit checks first. Every element is then a left-normed sum
    (...((0 + g1) + g2) ...) + gk over G, so a set that holds 0 and G and
    is closed under + is R (0 is a multiple of any g once + associates):

    1. + with y in G (Light's test): the a with (x+a)+y == x+(a+y) for all
       x, y are closed under +, so + is associative.
    2. Distributivity, the right law with z in G, the left law with x
       and z in G: by 1, the z with (y+z)*x == y*x + z*x for all x, y are
       closed under +, so the right law holds. Then 0*a = 0, as 0*a =
       (0+0)*a = 0*a + 0*a, and the left defect x*(y+z) - x*y - x*z is
       additive in x, so for each z in G the x on which it vanishes for
       all y hold 0 and G and are closed under +: they are R. The z with
       x*(y+z) == x*y + x*z for all x, y are closed under + as on the
       right, so the left law holds. The left law costs O(n |G|^2).
    3. * with x, y, z in G: under both distributive laws the associator
       (xy)z - x(yz) is additive in each argument, so it vanishes
       everywhere once it vanishes on G^3.
    """
    hit = _first_assoc_violation(add, mids=gens)
    if hit is not None:
        return "add-associative", hit
    hit = _first_assoc_violation(mul, mids=gens, ends=gens)
    if hit is not None:
        return "mul-associative", hit
    hit = _first_distrib_violation(add, mul, zs=gens, xs=(gens, None))
    if hit is not None:
        side, x, y, z = hit
        return ("left-distributive" if side == 0 else "right-distributive"), (x, y, z)
    return None


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
    element, not sampled, by :func:`_first_ring_law_violation` and
    :func:`_first_star_law_violation` on the ring's additive generators;
    only after a hit does the scan run over every element, to report the
    first violating triple or pair. Every check reads the ring's lines a
    block at a time (:func:`_ring_lines`): a tabled ring's own tables, a
    call-based ring's backend blocks, so that no table is built. A
    call-based ring with order^2 above ``VALIDATION_TABLE_CAP`` is refused
    before any check. Returns a summary dict on success.
    """
    add, mul = _ring_lines(ring)  # refuses a call-based ring past the cap
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    star = ring.star_vector()
    neg = ring.neg_vector()
    checks: List[str] = []

    def witness(*indices: int) -> tuple:
        return tuple(ring.decode(int(i)) for i in indices)

    # zero is a (left, hence two-sided once commutativity holds) identity
    row0 = add.rows([0])[0]
    if not np.array_equal(row0, idx):
        raise AxiomViolation("zero-identity", witness(int(np.argmax(row0 != idx))))
    checks.append("zero-identity")

    hit = _first_hit(lambda p: add.rows(p) != add.cols(p), n, n)
    if hit is not None:
        raise AxiomViolation("add-commutative", witness(*hit))
    checks.append("add-commutative")
    add = add._replace(cols=add.rows)  # + commutes: its columns are its rows

    inv = add.pairs(idx, neg)
    if inv.any():
        raise AxiomViolation("add-inverse", witness(int(np.argmax(inv != 0))))
    checks.append("add-inverse")

    if _first_ring_law_violation(add, mul, ring.generators) is not None:
        # a real violation; name the first over every triple
        axiom, hit = _first_ring_law_violation(add, mul)
        raise AxiomViolation(axiom, witness(*hit))
    checks.extend(("add-associative", "mul-associative", "distributive"))

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
