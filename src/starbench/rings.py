"""Finite *-rings with indexed elements.

A :class:`StarRing` is a finite ring with involution whose elements are the
indices 0..order-1, with index 0 always the zero element. Every operation
is served by one backend object. A small ring (``order**2 <=
limits.table_threshold``) that a descriptor names, which the classifiers
scan row by row, has its dense Cayley tables assembled at construction and
is then served by :class:`_TablesBackend`, as is
:meth:`StarRing.from_tables`. Every other ring is call-based and computes
each block of rows on demand with a few vectorized numpy calls: the pair
ring and the quotient of a unitification have no descriptor. The pair
ring is read through fewer pair ops than its tables take to assemble; the
quotient is too, except where ``verify_unitification`` scans every row of
a small one, which it reads from a twin (:meth:`StarRing.tabled`) whose
tables are walked along its additive generators
(:func:`_tables_along_generators`). Matrix rings compute products as
gathers from a small row-block table and sums from a smaller one (see
:class:`_MatrixBackend`): a call-based M(2, Z(7)) product row costs two
gathers of 2401 entries, and a sum row is the outer sum of two gathered
rows of 49.

Every dense table of element indices, the matrix row-block tables and the
scalar action table included, holds them in :func:`index_dtype`: int16
up to order 2^15, int32 past it. numpy keeps the dtype of an int16 array
under arithmetic with a Python int (NEP 50), so index arithmetic on table
entries either stays below the order, as in the matrix backend's
multiply-add of partial indices, or is widened first, as in
:func:`_table_pairs`; :class:`StarRing` hands out int64 indices.

Backends supply pair ops and a codec and, where it pays, blocks of lines:

* ``order`` — the number of elements;
* ``add_pairs(u, v)``, ``mul_pairs(u, v)`` — elementwise on index arrays,
  broadcast against each other;
* ``neg_vec()``, ``star_vec()`` — the unary maps as vectors;
* ``decode(i)`` / ``encode(literal)`` — the element codec;
* optionally the blocks ``add_rows(idx)`` and ``mul_rows(idx)`` (the rows
  of the elements idx, a fresh (len(idx), n) array) and
  ``mul_lines(members)`` (the products of a block of elements with every
  member, from either side);
* optionally ``right_annihilators(generators)``: r(x), or r(xR) given the
  additive generators, for every x, as bitsets, where the construction
  reads them without the n rows; only the matrix backend has it, and
  the default, None, leaves the scans to their passes over the rows.

:class:`_Backend` derives the rest straight from the definitions. Each
block has a default: ``add_rows`` is one broadcast ``add_pairs``,
``mul_lines`` one broadcast ``mul_pairs`` per block, and ``mul_rows`` the
rows of ``mul_lines`` over every element. Every single line is derived
once, for every backend: the row ``add_row(i)`` is ``add_rows([i])[0]``,
``mul_row(i)`` is ``mul_rows([i])[0]``, and the column ``mul_col(j)`` is
``mul_pairs`` of every element with j (addition is commutative, so there
is no add_col). So are the scalar ops ``add``/``mul``, ``find_unity()``
(the idempotent that is a two-sided identity, with ``unity_candidate()``
tried first) and ``characteristic()`` (the least k with k.x = 0 for every
x). A backend overrides a block only where it pays: the cyclic, matrix
and tables backends compute a block of rows at once (one broadcast, k
gathers or outer sums, one slice), and the product joins its factors'
blocks in one outer sum; the pair ring, a product with a twisted
multiplication, overrides ``mul_lines`` instead, and takes its blocks of
rows from it, as the default does. The cyclic, matrix and product
backends know their characteristic. Subrings and quotients are both a
:class:`_SectionBackend` over their parent, whose blocks of lines they
take over their representatives. Every backend whose construction names
a unity returns it as ``unity_candidate()``, so that one row and one
column confirm it instead of a search over the idempotents: 1 for Z(m),
the identity matrix, (1_L, 1_R) for a product, (0, 1_K) for the pair
ring, and a section's image of its parent's unity, when the section
holds it (a subring's unity may lie elsewhere, and is searched).
:class:`StarRing` reads the unity, the characteristic and the right
annihilators from the backend it was built from, so a tabled matrix ring
reads them off its row vectors too.

Everything downstream (annihilator scans, classifiers, unit adjunction)
works through :class:`StarRing`, never through a backend directly; only
the axiom audit reads a backend's blocks, through :func:`_ring_lines`.
A descriptor ring's tables are assembled from ``add_rows``/``mul_rows`` a
block of :func:`_lines_per_block` rows at a time (``StarRing._assemble``);
a tabled twin's are walked.

Every :class:`StarRing` is a *-ring, by construction or by the audit
:meth:`StarRing.from_tables` runs.

:func:`_greedy_span` is the one walk for additive subgroups: it grows the
subgroup a set generates one coset at a time with ``add_pairs`` and picks
a greedy generating set G of it. It serves each ring's G
(:attr:`StarRing.generators`) and the levels of its walk, along which the
audit proves distributivity, additive closures, the kernel N of a
unitification, which is closed under + exactly when it is the span of its
generators, the closure of a subring (:func:`_close_subring`: spans grown
by the products of their generators until these lie in the span), and, through the coset steps it reports, the tables of a tabled
twin.

The audit of the *-ring axioms, which proves them from a ring's
operations, is :func:`starbench.audit.validate_star_ring`.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, reduce
from operator import and_
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bitsets import full_mask, masks_from_rows
from .config import DEFAULT_LIMITS, Limits
from .descriptor import (
    Cyclic,
    Descriptor,
    Matrix,
    Product,
    SubringClosure,
    structural_order,
    to_dsl,
    validate_descriptor,
)
from .errors import DescriptorError, LiteralError, OrderCapExceeded

# The largest order^2 of a call-based ring that the axiom audit checks: past
# the persistent-table threshold, but not unbounded. The audit builds no
# table; it keeps the cap so that it refuses, with exit 4, what it always
# refused.
VALIDATION_TABLE_CAP = 36_000_000

# Entries of a block of lines built or evaluated at once: table assembly,
# the scan passes and the audit's blocks of lines (see _lines_per_block).
SCAN_BLOCK = 1 << 16


def _as_index_array(v) -> np.ndarray:
    return np.asarray(v, dtype=np.int64)


def index_dtype(order: int) -> type:
    """The dtype of a dense table of element indices of a ring of this
    order: int16 while every index fits, int32 past that."""
    return np.int16 if order <= 2**15 else np.int32


def _lines_per_block(n: int) -> int:
    """As many lines of length n as fit in ``SCAN_BLOCK`` entries; at least
    one and at most n."""
    return max(1, min(n, SCAN_BLOCK // max(n, 1)))


def _table_pairs(table: np.ndarray, u, v) -> np.ndarray:
    """table[u, v] in the table's dtype, through one gather from the flat
    table (faster than indexing with two arrays). u is widened to at
    least int32 (int64 past n^2 = 2^31) before u * n, which would wrap in
    int16; the flat indices stay int32 when u and v fit it, which halves
    the cost of the audit's int32 grids."""
    n = table.shape[1]
    u = np.asarray(u)
    least = np.int32 if n * n < 2**31 else np.int64
    return table.ravel()[u.astype(np.promote_types(u.dtype, least), copy=False) * n + v]


class _Backend:
    """Base of every backend: everything but the arithmetic and the codec,
    from the definitions. Subclasses supply ``order``, ``add_pairs``,
    ``mul_pairs``, ``neg_vec``, ``star_vec``, ``decode`` and ``encode``,
    and override the blocks ``add_rows``, ``mul_rows`` and ``mul_lines``
    where it pays. The single lines are derived here alone: a row is a
    one-row block, and a column is one ``mul_pairs``."""

    def add(self, i: int, j: int) -> int:
        return int(self.add_pairs(np.array([i]), np.array([j]))[0])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_pairs(np.array([i]), np.array([j]))[0])

    def add_rows(self, idx) -> np.ndarray:
        """The (len(idx), n) block of sums i + x, i in idx and x every
        element: one broadcast add_pairs."""
        return self.add_pairs(_as_index_array(idx)[:, None], np.arange(self.order))

    def mul_rows(self, idx) -> np.ndarray:
        """The (len(idx), n) block of products i.x, i in idx and x every
        element: the rows of ``mul_lines`` over every element."""
        return self.mul_lines(np.arange(self.order))[0](idx)

    def mul_lines(self, members) -> Tuple[Callable, Callable]:
        """(rows, cols) with rows(idx)[t, s] = idx[t].members[s] and
        cols(idx)[t, s] = members[s].idx[t]: the products of a block of
        elements with every member, from either side, as a fresh
        (len(idx), len(members)) array. By default each block is one
        broadcast mul_pairs."""
        members = _as_index_array(members)
        return (
            lambda idx: self.mul_pairs(_as_index_array(idx)[:, None], members),
            lambda idx: self.mul_pairs(members, _as_index_array(idx)[:, None]),
        )

    def add_row(self, i: int) -> np.ndarray:
        return self.add_rows([i])[0]

    def mul_row(self, i: int) -> np.ndarray:
        return self.mul_rows([i])[0]

    def mul_col(self, j: int) -> np.ndarray:
        return self.mul_pairs(np.arange(self.order), j)

    def unity_candidate(self) -> Optional[int]:
        """The element the construction names as the unity, if it names
        one; find_unity confirms it."""
        return None

    def find_unity(self) -> Optional[int]:
        """The idempotent e with e x = x = x e for every x, if any. A
        two-sided identity is unique, so the construction's candidate is
        tried first, confirmed by one row and one column; the idempotents
        are searched only when there is none or it fails."""
        idx = np.arange(self.order, dtype=np.int64)

        def is_unity(e: int) -> bool:
            return np.array_equal(self.mul_row(e), idx) and np.array_equal(
                self.mul_col(e), idx
            )

        named = self.unity_candidate()
        if named is not None and is_unity(named):
            return named
        for e in np.flatnonzero(self.mul_pairs(idx, idx) == idx).tolist():
            if is_unity(e):
                return e
        return None

    def right_annihilators(self, generators: Optional[Sequence[int]]) -> Optional[List[int]]:
        """r(x) for every x, or r(xR) given the additive generators, as
        bitsets, where the construction reads them without a pass over the
        rows; None here, for the scans' passes (see _MatrixBackend)."""
        return None

    def characteristic(self) -> int:
        """Least k >= 1 with k.x = 0 for all x, by iterated vector addition:
        at most n rounds on a group of order n."""
        idx = np.arange(self.order, dtype=np.int64)
        cur = idx.copy()
        k = 1
        while cur.any():
            cur = self.add_pairs(cur, idx)
            k += 1
        return k


class _CyclicBackend(_Backend):
    """Integers mod m; identity involution; literal = any int (reduced).

    Sums are read off the residues written out twice, ``_twice``: for
    residues i and j, i + j mod m is entry i + j, and the row of i is the
    window of m entries that starts at i. This saves a reduction mod m,
    several times the cost of the gather, on every sum. Products are taken
    and reduced in int32 while m^2 < 2^31, where ``%`` costs about a third
    of what it does in int64, and returned as int64 indices.
    """

    def __init__(self, modulus: int):
        self.m = modulus
        self.order = modulus
        self._idx = np.arange(modulus, dtype=np.int64)
        self._twice = np.concatenate([self._idx, self._idx])
        self._sum_rows = np.lib.stride_tricks.sliding_window_view(self._twice, modulus)
        # the residues as factors: int32 while every product of two fits
        self._factors = self._idx.astype(np.int32 if modulus * modulus < 2**31 else np.int64)

    def _products(self, u, v) -> np.ndarray:
        """u * v mod m for residues u and v (broadcast), as int64."""
        dtype = self._factors.dtype
        prod = np.asarray(u, dtype) * np.asarray(v, dtype)
        return np.remainder(prod, self.m, out=np.empty(prod.shape, np.int64))

    def add_rows(self, idx) -> np.ndarray:
        return self._sum_rows[_as_index_array(idx)]

    def mul_rows(self, idx) -> np.ndarray:
        return self._products(_as_index_array(idx)[:, None], self._factors)

    def add_pairs(self, u, v) -> np.ndarray:
        return self._twice[_as_index_array(u) + _as_index_array(v)]

    def mul_pairs(self, u, v) -> np.ndarray:
        return self._products(u, v)

    def neg_vec(self) -> np.ndarray:
        return (-self._idx) % self.m

    def star_vec(self) -> np.ndarray:
        return self._idx.copy()

    def unity_candidate(self) -> int:
        return 1 % self.m

    def characteristic(self) -> int:
        return self.m

    def decode(self, i: int) -> Any:
        return int(i)

    def encode(self, lit: Any) -> int:
        if not isinstance(lit, int) or isinstance(lit, bool):
            raise LiteralError("cyclic element literal must be an int, got %r" % (lit,))
        return lit % self.m


def _digit_table(left, vecs, op, modulus, powers, dtype) -> np.ndarray:
    """The (len(left), len(vecs)) table, in ``dtype``, of the row vector
    whose entry c is op(left[i, c], vecs[j, c]) mod ``modulus``, encoded
    with digit weights ``powers``. It is summed one digit column and one
    ``SCAN_BLOCK`` of rows at a time, so no temporary is larger than a
    block, and every partial sum is below the encoded whole."""
    out = np.zeros((len(left), len(vecs)), dtype=dtype)
    step = _lines_per_block(len(vecs))
    for start in range(0, len(left), step):
        block = out[start : start + step]
        for c, power in enumerate(powers.tolist()):
            digit = op(left[start : start + step, c, None], vecs[:, c]) % modulus
            block += (digit * power).astype(dtype)
    return out


class _MatrixBackend(_Backend):
    """k-by-k matrices over Z(m), involution = transpose composed with the
    base star (identity for cyclic bases, composed anyway).

    Index encoding: row-major digits base m, first entry most significant.
    Equivalently, an index is its k rows read as k digits base r = m^k,
    first row most significant: i = sum over t of blocks[t, i] * r^(k-1-t),
    where the row block blocks[t, i] indexes row t of matrix i as a vector
    of Z(m)^k (its entries as digits base m). ``blocks`` is stored k-by-n,
    so that each row block of every element is one contiguous array.

    Two tables built once serve every sum and product, row block by row
    block:

    * ``radd[v, w]``, r-by-r: the row block of v + w;
    * ``rmul[v, B]``, r-by-n: the row block of v.B, for the row vector v and
      every matrix B. v.B is the sum over s of v_s.b_s, b_s the row s of B,
      so ``rmul`` is the outer sum through ``radd``, over the digits v_s of
      v, of ``scaled[v_s, blocks[s]]``, where ``scaled[c, w]``, m-by-r, is
      the row block of c.w: k - 1 gathers from ``radd``, with no matrix
      product. ``radd`` and ``scaled`` are summed a digit column at a time
      (``_digit_table``), with no (r, r, k) temporary.

    Both are C-contiguous and in the :func:`index_dtype` of the ring's
    order, not of r: the k gathered parts of an index are joined in their
    own dtype, ``out * r + part``, which stays below the order at every
    step, so it cannot wrap. A gather from int16 moves a quarter of the
    bytes of int64, and ``ravel`` is a view; ``blocks`` stays int64, since
    numpy converts narrower fancy indices to intp on every gather. Row t
    of x.B is (row t of x).B, so x.B has row blocks ``rmul[blocks[t, x],
    B]``: a block of rows of the multiplication table gathers k rows of
    ``rmul`` per element x, and a product of pairs gathers k entries of it
    per pair. This does not go through the transpose, so it holds for any
    base involution. Every block of product rows and every pair op, sums
    included, is k gathers joined by a multiply-add, with no matrix product
    and no reduction mod m. A block of sum rows gathers only k rows of
    ``radd`` per element and takes their outer sum (``add_rows``). The
    unary maps and the codec go through the matrices themselves.

    Right annihilators are read off the r row vectors, not the n rows of
    the table (``right_annihilators``), from the zero sets Z(v) = {B :
    v.B = 0}, the zero entries of ``rmul``'s row v:

    * r(x) is the meet of Z(x_t) over the rows x_t of x, since x.B = 0
      exactly when every x_t.B = 0;
    * r(xR) is the meet of r(x_t R) over t, where r(vR) is the meet of
      Z(v.g) over the additive generators g, since r -> v.r and w -> w.y
      are additive.
    """

    def __init__(self, size: int, modulus: int):
        self.k = size
        self.m = modulus
        self.order = modulus ** (size * size)
        kk = size * size
        powers = modulus ** np.arange(kk - 1, -1, -1, dtype=np.int64)
        self._powers = powers
        idx = np.arange(self.order, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % modulus
        self.mats = np.ascontiguousarray(
            digits.reshape(self.order, size, size).astype(np.int64)
        )
        self._base_star = np.arange(modulus, dtype=np.int64)  # identity on Z(m)

        r = modulus ** size
        self.r = r
        row_powers = powers[kk - size:]  # m^(k-1-c) for the entries c of a row
        self.blocks = (idx // r ** np.arange(size - 1, -1, -1)[:, None]) % r
        vecs = (np.arange(r, dtype=np.int64)[:, None] // row_powers) % modulus
        dtype = index_dtype(self.order)
        self.radd = _digit_table(vecs, vecs, np.add, modulus, row_powers, dtype)
        scales = np.repeat(np.arange(modulus, dtype=np.int64)[:, None], size, axis=1)
        scaled = _digit_table(scales, vecs, np.multiply, modulus, row_powers, dtype)
        # after row block s, row i holds (v_0, .., v_s, 0, .., 0).B for the
        # digits v_0 .. v_s of i, first most significant; block s adds v_s.b_s
        rmul = scaled[:, self.blocks[0]]
        for b in self.blocks[1:]:
            rmul = self.radd[rmul[:, None, :], scaled[:, b][None, :, :]]
            rmul = rmul.reshape(-1, self.order)
        self.rmul = np.ascontiguousarray(rmul)

    def _enc(self, mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(mats.shape[0], -1)
        return flat @ self._powers

    def _join(self, parts) -> np.ndarray:
        """The indices whose row blocks are the k arrays ``parts`` yields,
        first row first; a generator keeps one part alive at a time."""
        parts = iter(parts)
        out = next(parts)
        for part in parts:
            out = out * self.r
            out += part
        return out

    def add_rows(self, idx) -> np.ndarray:
        """Column j of a row is the index whose row blocks are
        radd[blocks[t, i], blocks[t, j]], and the j run through the row
        blocks in index order, first row most significant: so the block
        is the outer sum of the k gathered radd rows, scaled as digits
        base r, and nothing of length n is gathered."""
        idx = _as_index_array(idx)
        out = self.radd[self.blocks[0, idx]]
        for b in self.blocks[1:]:
            sums = out[:, :, None] * self.r + self.radd[b[idx]][:, None, :]
            out = sums.reshape(len(idx), out.shape[1] * self.r)
        return out

    def mul_rows(self, idx) -> np.ndarray:
        idx = _as_index_array(idx)
        return self._join(self.rmul[b[idx]] for b in self.blocks)

    def add_pairs(self, u, v) -> np.ndarray:
        u = _as_index_array(u)
        v = _as_index_array(v)
        flat = self.radd.ravel()
        return self._join([flat[b[u] * self.r + b[v]] for b in self.blocks])

    def mul_pairs(self, u, v) -> np.ndarray:
        u = _as_index_array(u)
        v = _as_index_array(v)
        flat = self.rmul.ravel()
        return self._join([flat[b[u] * self.order + v] for b in self.blocks])

    def right_annihilators(self, generators: Optional[Sequence[int]]) -> List[int]:
        """r(x) for every x, or r(xR) given the additive generators: the
        meet over the rows x_t of the row vector's set, Z(x_t) or r(x_t R)
        (see the class docstring); r + n.k big-int ANDs in all."""
        zero = masks_from_rows(self.rmul == 0)  # zero[v] = Z(v)
        if generators is None:
            per_vector = zero
        else:
            v_g = self.rmul[:, _as_index_array(generators)].tolist()
            whole = full_mask(self.order)
            per_vector = [reduce(and_, map(zero.__getitem__, row), whole) for row in v_g]
        out = [per_vector[v] for v in self.blocks[0].tolist()]
        for b in self.blocks[1:]:
            out = [s & per_vector[v] for s, v in zip(out, b.tolist())]
        return out

    def neg_vec(self) -> np.ndarray:
        return self._enc((-self.mats) % self.m)

    def star_vec(self) -> np.ndarray:
        starred = self._base_star[self.mats.transpose(0, 2, 1)]
        return self._enc(np.ascontiguousarray(starred))

    def unity_candidate(self) -> int:
        return self.encode(np.identity(self.k, dtype=np.int64))

    def characteristic(self) -> int:
        return self.m

    def decode(self, i: int) -> Any:
        return tuple(map(tuple, self.mats[i].tolist()))

    def encode(self, lit: Any) -> int:
        arr = np.array(lit, dtype=object)  # entries of any size, reduced below
        if arr.shape != (self.k, self.k):
            raise LiteralError(
                "matrix literal must be %dx%d, got shape %r" % (self.k, self.k, arr.shape)
            )
        return int(self._enc((arr % self.m).astype(np.int64)[None, :, :])[0])


class _ProductBackend(_Backend):
    """Direct product; componentwise operations and involution.

    Index encoding: i = left_index * right_order + right_index.
    """

    def __init__(self, left: "StarRing", right: "StarRing"):
        self.left = left
        self.right = right
        self.rn = right.order
        self.order = left.order * right.order

    def _split(self, u):
        u = _as_index_array(u)
        return u // self.rn, u % self.rn

    def _outer(self, lvec: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        """The index of (lvec[..., s], rvec[..., t]) for every s and t, s
        major, along the last axis: of two vectors, or row by row of two
        blocks of rows, in one outer sum."""
        joined = lvec[..., :, None] * self.rn + rvec[..., None, :]
        return joined.reshape(lvec.shape[:-1] + (self.order,))

    def add_rows(self, idx) -> np.ndarray:
        li, ri = self._split(idx)
        return self._outer(self.left.add_rows(li), self.right.add_rows(ri))

    def mul_rows(self, idx) -> np.ndarray:
        li, ri = self._split(idx)
        return self._outer(self.left.mul_rows(li), self.right.mul_rows(ri))

    def add_pairs(self, u, v) -> np.ndarray:
        ul, ur = self._split(u)
        vl, vr = self._split(v)
        return self.left.add_pairs(ul, vl) * self.rn + self.right.add_pairs(ur, vr)

    def mul_pairs(self, u, v) -> np.ndarray:
        ul, ur = self._split(u)
        vl, vr = self._split(v)
        return self.left.mul_pairs(ul, vl) * self.rn + self.right.mul_pairs(ur, vr)

    def neg_vec(self) -> np.ndarray:
        return self._outer(self.left.neg_vector(), self.right.neg_vector())

    def star_vec(self) -> np.ndarray:
        return self._outer(self.left.star_vector(), self.right.star_vector())

    def unity_candidate(self) -> Optional[int]:
        lu, ru = self.left.unity, self.right.unity
        return None if lu is None or ru is None else lu * self.rn + ru

    def characteristic(self) -> int:
        return math.lcm(self.left.characteristic, self.right.characteristic)

    def decode(self, i: int) -> Any:
        li, ri = divmod(i, self.rn)
        return (self.left.decode(li), self.right.decode(ri))

    def encode(self, lit: Any) -> int:
        if not isinstance(lit, tuple) or len(lit) != 2:
            raise LiteralError("product element literal must be a pair, got %r" % (lit,))
        return self.left.encode(lit[0]) * self.rn + self.right.encode(lit[1])


class _SectionBackend(_Backend):
    """A ring whose elements are named by elements of a parent ring.

    Element i is parent element ``reps[i]``, and ``local_of`` maps every
    parent index back to its local index, or to -1 outside the ring. A
    subring passes its carrier and -1 off it; a quotient passes its coset
    representatives and the coset of every parent element. Each operation
    runs in the parent on the representatives and maps the result back:
    a block of rows (``mul_rows``) or of columns is the parent's block of
    lines (``mul_lines``) of those representatives over all of them, so a
    quotient's rows cost what the pair ring's rows cost, a block at a
    time.

    The caller proves the section a *-ring before it hands the ring out
    (build_ring the subring's closure, build_quotient that the operations
    are well defined on the cosets), so every result maps back.
    """

    def __init__(self, parent: "StarRing", reps: np.ndarray, local_of: np.ndarray):
        self.parent = parent
        self.reps = reps
        self.local_of = local_of
        self.order = len(reps)

    def add_pairs(self, u, v) -> np.ndarray:
        u, v = _as_index_array(u), _as_index_array(v)
        return self.local_of[self.parent.add_pairs(self.reps[u], self.reps[v])]

    def mul_pairs(self, u, v) -> np.ndarray:
        u, v = _as_index_array(u), _as_index_array(v)
        return self.local_of[self.parent.mul_pairs(self.reps[u], self.reps[v])]

    def mul_lines(self, members) -> Tuple[Callable, Callable]:
        # the lines hold no reference to self, which caches them: a cycle
        # would keep the parent (and R's tables) alive until the cyclic
        # garbage collector ran
        reps, local_of = self.reps, self.local_of
        rows, cols = self.parent.mul_lines(reps[_as_index_array(members)])
        return (
            lambda idx: local_of[rows(reps[_as_index_array(idx)])],
            lambda idx: local_of[cols(reps[_as_index_array(idx)])],
        )

    @cached_property
    def _lines(self) -> Tuple[Callable, Callable]:
        """The blocks of lines over every element: the parent's over the
        representatives, which it prepares once (a pair ring splits them)."""
        return self.mul_lines(np.arange(self.order))

    def mul_rows(self, idx) -> np.ndarray:
        return self._lines[0](idx)

    def unity_candidate(self) -> Optional[int]:
        """The parent's unity, when the section holds it: a subring's
        unity may lie elsewhere (4 in {0, 2, 4} of Z(6)), and is searched."""
        e = self.parent.unity
        return None if e is None or self.local_of[e] < 0 else int(self.local_of[e])

    def neg_vec(self) -> np.ndarray:
        return self.local_of[self.parent.neg_vector()[self.reps]]

    def star_vec(self) -> np.ndarray:
        return self.local_of[self.parent.star_vector()[self.reps]]

    def decode(self, i: int) -> Any:
        return self.parent.decode(int(self.reps[i]))

    def encode(self, lit: Any) -> int:
        local = int(self.local_of[self.parent.encode(lit)])
        if local < 0:
            raise LiteralError("element %r is not in the subring" % (lit,))
        return local


class _TablesBackend(_Backend):
    """Dense operation tables in :func:`index_dtype`; every row, column
    and pair is a gather.

    It serves small descriptor rings, rings given by their tables and the
    tabled twins of quotients (:meth:`StarRing.tabled`). ``codec``
    supplies decode/encode. A ring assembled from another backend keeps
    that backend as its codec; StarRing.from_tables passes a
    :class:`_Literals`. The unity and the characteristic of an assembled
    ring are read from its construction backend, and a twin keeps its
    original's; only a ring given by its tables falls back on the defaults
    here, the characteristic once the audit has proved + a group law.
    """

    def __init__(self, add: np.ndarray, mul: np.ndarray, neg, star, codec):
        self.order = add.shape[0]
        self.add_table = add
        self.mul_table = mul
        self._neg = np.asarray(neg, dtype=np.int64)
        self._star = np.asarray(star, dtype=np.int64)
        self.codec = codec

    def add(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def add_rows(self, idx) -> np.ndarray:
        return self.add_table[_as_index_array(idx)].astype(np.int64)

    def mul_rows(self, idx) -> np.ndarray:
        return self.mul_table[_as_index_array(idx)].astype(np.int64)

    def add_pairs(self, u, v) -> np.ndarray:
        return _table_pairs(self.add_table, u, v)

    def mul_pairs(self, u, v) -> np.ndarray:
        return _table_pairs(self.mul_table, u, v)

    def neg_vec(self) -> np.ndarray:
        return self._neg.copy()

    def star_vec(self) -> np.ndarray:
        return self._star.copy()

    def decode(self, i: int) -> Any:
        return self.codec.decode(i)

    def encode(self, lit: Any) -> int:
        return self.codec.encode(lit)


class _Literals:
    """The codec of a ring given only by its tables (StarRing.from_tables):
    literals[i] names element i, by default the index itself."""

    def __init__(self, order: int, literals: Optional[Sequence[Any]]):
        self._literals = list(literals) if literals is not None else list(range(order))
        self._lit_index = {self._freeze(l): i for i, l in enumerate(self._literals)}

    @staticmethod
    def _freeze(lit: Any) -> Any:
        if isinstance(lit, list):
            return tuple(_Literals._freeze(x) for x in lit)
        return lit

    def decode(self, i: int) -> Any:
        return self._literals[i]

    def encode(self, lit: Any) -> int:
        key = self._freeze(lit)
        if key not in self._lit_index:
            raise LiteralError("element %r is not in the ring" % (lit,))
        return self._lit_index[key]


class StarRing:
    """A finite ring with involution, elements indexed 0..order-1.

    Index 0 is the zero element. ``unity`` is the index of the multiplicative
    identity or None, found at construction; ``characteristic`` is the
    additive exponent, computed on first read. Both come from the backend
    the ring is built from, never from tables assembled from it. The
    constructor checks no axiom: :meth:`from_tables` runs the audit, and
    every other ring is a *-ring by its construction. All arrays handed
    out are read-only views or fresh copies.
    """

    def __init__(
        self,
        backend,
        descriptor: Optional[Descriptor] = None,
        label: Optional[str] = None,
        limits: Limits = DEFAULT_LIMITS,
    ):
        self.descriptor = descriptor
        self.order = backend.order
        self.label = label if label is not None else (
            to_dsl(descriptor) if descriptor is not None else "ring(order=%d)" % backend.order
        )
        self.limits = limits

        self._neg = np.asarray(backend.neg_vec(), dtype=np.int64)
        self._star = np.asarray(backend.star_vec(), dtype=np.int64)
        self._neg.setflags(write=False)
        self._star.setflags(write=False)
        self._origin = backend  # characteristic reads it, not the tables
        self._backend = backend
        if descriptor is not None and self.order**2 <= limits.table_threshold:
            self._backend = _TablesBackend(
                self._assemble(backend.add_rows),
                self._assemble(backend.mul_rows),
                self._neg,
                self._star,
                codec=backend,
            )
        self.unity: Optional[int] = backend.find_unity()

    def _assemble(self, rows: Callable) -> np.ndarray:
        """The read-only table whose rows ``rows(idx)`` returns, in
        :func:`index_dtype`, filled a block of ``_lines_per_block`` rows at
        a time."""
        n = self.order
        table = np.empty((n, n), dtype=index_dtype(n))
        step = _lines_per_block(n)
        for start in range(0, n, step):
            stop = min(start + step, n)
            table[start:stop] = rows(np.arange(start, stop))
        table.setflags(write=False)
        return table

    @cached_property
    def characteristic(self) -> int:
        """The additive exponent, read on first use from the backend the
        ring was built from: the cyclic, matrix and product backends know
        it, and any other adds every x to k.x until all reach 0, which
        ends by k = n on a group. A ring given by its tables is a group
        under + by then, since from_tables audits it first."""
        return self._origin.characteristic()

    # --- scalar ops ------------------------------------------------------

    def add(self, i: int, j: int) -> int:
        return self._backend.add(i, j)

    def mul(self, i: int, j: int) -> int:
        return self._backend.mul(i, j)

    def neg(self, i: int) -> int:
        return int(self._neg[i])

    def star(self, i: int) -> int:
        return int(self._star[i])

    # --- vector ops -------------------------------------------------------

    def add_row(self, i: int) -> np.ndarray:
        return _as_index_array(self._backend.add_row(i))

    def mul_row(self, i: int) -> np.ndarray:
        return _as_index_array(self._backend.mul_row(i))

    def add_rows(self, idx) -> np.ndarray:
        """The (len(idx), n) block of ``add_row(i)`` for i in idx, as a
        fresh array that the caller may overwrite."""
        return _as_index_array(self._backend.add_rows(idx))

    def mul_rows(self, idx) -> np.ndarray:
        """The (len(idx), n) block of ``mul_row(i)`` for i in idx, as a
        fresh array that the caller may overwrite."""
        return _as_index_array(self._backend.mul_rows(idx))

    def mul_col(self, j: int) -> np.ndarray:
        return _as_index_array(self._backend.mul_col(j))

    def add_pairs(self, u, v) -> np.ndarray:
        return _as_index_array(self._backend.add_pairs(u, v))

    def mul_pairs(self, u, v) -> np.ndarray:
        return _as_index_array(self._backend.mul_pairs(u, v))

    def mul_lines(self, members) -> Tuple[Callable, Callable]:
        """(rows, cols): rows(idx) and cols(idx) are the blocks of products
        i.m and m.i for i in idx and every m in ``members``; see
        _Backend.mul_lines."""
        return self._backend.mul_lines(members)

    def neg_vector(self) -> np.ndarray:
        return self._neg

    def star_vector(self) -> np.ndarray:
        return self._star

    def tabled(self) -> "StarRing":
        """This ring served from tables assembled along its additive
        generators (:func:`_tables_along_generators`): a twin with the
        same codec, unity, characteristic and label."""
        add, mul = _tables_along_generators(self)
        twin = copy.copy(self)
        twin._backend = _TablesBackend(add, mul, self._neg, self._star, codec=self._backend)
        return twin

    @cached_property
    def _additive_walk(self) -> Tuple[Tuple[int, ...], np.ndarray]:
        steps: list = []
        gens = _greedy_span(self.add_pairs, np.ones(self.order, dtype=bool), steps)[1]
        level = {s: i for i, s in enumerate(gens, 1)}
        levels = np.zeros(self.order, dtype=np.int64)
        for _, s, shifted in reversed(steps):  # an element's first step wins
            levels[shifted] = level[s]
        levels[0] = 0  # flagged before any step, where + is no group law too
        levels.setflags(write=False)
        return tuple(gens), levels

    @property
    def generators(self) -> Tuple[int, ...]:
        """A greedy generating set G of (R, +), walked once per ring by
        :func:`_greedy_span`: the lowest index outside the span of G joins
        G until the span is R, so G is ascending. Computed with
        ``add_pairs``, so call-based rings need no table. An additive map
        that vanishes on G vanishes on the whole group, and two that agree
        on G agree everywhere; the certificates rest on that."""
        return self._additive_walk[0]

    @property
    def generator_levels(self) -> np.ndarray:
        """Each element's level in the walk that picks :attr:`generators`:
        0 for 0, and i for the elements first reached by a step of the i-th
        generator's walk, so on a group those of level at most i span the
        first i generators, and the i-th generator is the lowest element of
        level i."""
        return self._additive_walk[1]

    def right_annihilators(self, of_right_ideal: bool = False) -> Optional[List[int]]:
        """r(x), or r(xR) when ``of_right_ideal``, for every x, as bitsets,
        where the backend the ring was built from reads them off its
        construction (a matrix ring's row vectors), tabled or not; None
        for every other ring."""
        gens = self.generators if of_right_ideal else None
        return self._origin.right_annihilators(gens)

    def has_tables(self) -> bool:
        """Whether dense tables serve the ring: given by its tables, named
        by a descriptor with order squared at most the table threshold, or
        a tabled twin."""
        return isinstance(self._backend, _TablesBackend)

    # --- codec and misc ----------------------------------------------------

    def decode(self, i: int) -> Any:
        return self._backend.decode(i)

    def encode(self, lit: Any) -> int:
        return self._backend.encode(lit)

    def __repr__(self) -> str:
        return "StarRing(%s, order=%d)" % (self.label, self.order)

    @staticmethod
    def from_tables(
        add: np.ndarray,
        mul: np.ndarray,
        neg: np.ndarray,
        star: np.ndarray,
        literals: Optional[Sequence[Any]] = None,
        label: str = "raw",
        limits: Limits = DEFAULT_LIMITS,
    ) -> "StarRing":
        """Build a ring from explicit tables (tests and adapters), audited
        by :func:`starbench.audit.validate_star_ring`, whose
        AxiomViolation it raises on tables that are not a *-ring."""
        from .audit import validate_star_ring  # audit imports this module

        dtype = index_dtype(len(add))
        add = np.array(add, dtype=dtype)
        mul = np.array(mul, dtype=dtype)
        add.setflags(write=False)
        mul.setflags(write=False)
        backend = _TablesBackend(add, mul, neg, star, _Literals(add.shape[0], literals))
        ring = StarRing(backend, descriptor=None, label=label, limits=limits)
        validate_star_ring(ring)
        return ring


def _close_subring(parent: StarRing, generator_indices: List[int]) -> np.ndarray:
    """The smallest subset containing the generators that is closed under
    +, -, * and star, ascending.

    It starts from H = span(X u X*), X the generators, and adds the
    products G x G, G the greedy generating set :func:`_greedy_span` picks
    for H, until they lie in H. Then H is closed: span(G) span(G) lies in
    span(G G) by biadditivity. Every H is closed under *, so the adjoints
    need no test: * is additive, so the first H is; and if H is, so is the
    next, span(H u G G), as (gh)* = h* g* with g* and h* in H = span(G).
    """
    star = parent.star_vector()
    seeds = np.zeros(parent.order, dtype=bool)
    seeds[generator_indices] = True
    seeds[star[generator_indices]] = True
    while True:
        span, gens = _greedy_span(parent.add_pairs, seeds)
        g = np.array(gens, dtype=np.int64)
        produced = parent.mul_pairs(g[:, None], g).ravel()
        if span[produced].all():
            return np.flatnonzero(span)
        seeds = span
        seeds[produced] = True


def build_ring(d: Descriptor, limits: Limits = DEFAULT_LIMITS) -> StarRing:
    """Construct the ring a descriptor denotes.

    Raises DescriptorError for malformed descriptors and OrderCapExceeded
    when the (structural) order passes limits.element_cap.
    """
    validate_descriptor(d)
    order = structural_order(d)
    if order > limits.element_cap:
        raise OrderCapExceeded(order, limits.element_cap)
    if isinstance(d, Matrix) and d.size * d.size > limits.element_cap:
        # only M(k, Z(1)) is left: every larger base has order >= 2^(k^2)
        raise OrderCapExceeded(
            d.size * d.size, limits.element_cap, what="matrix", measure="entry count"
        )

    if isinstance(d, Cyclic):
        return StarRing(_CyclicBackend(d.modulus), descriptor=d, limits=limits)
    if isinstance(d, Matrix):
        return StarRing(_MatrixBackend(d.size, d.base.modulus), descriptor=d, limits=limits)
    if isinstance(d, Product):
        left = build_ring(d.left, limits)
        right = build_ring(d.right, limits)
        return StarRing(_ProductBackend(left, right), descriptor=d, limits=limits)
    if isinstance(d, SubringClosure):
        parent = build_ring(d.parent, limits)
        gen_indices = [parent.encode(g) for g in d.generators]
        carrier = _close_subring(parent, gen_indices)
        local_of = np.full(parent.order, -1, dtype=np.int64)
        local_of[carrier] = np.arange(len(carrier))
        return StarRing(
            _SectionBackend(parent, carrier, local_of), descriptor=d, limits=limits
        )
    raise DescriptorError("not a descriptor: %r" % (d,))


# --- lines of the axiom audit -------------------------------------------------


class _Lines(NamedTuple):
    """One operation of a ring as the audit reads it, a block of lines at a
    time: ``rows(idx)[t, s] = op(idx[t], s)`` and ``cols(idx)[t, s] =
    op(s, idx[t])`` for an index array or a slice idx, and ``pairs(u, v)``
    elementwise, broadcast."""

    order: int
    rows: Callable
    cols: Callable
    pairs: Callable


def _table_lines(table: np.ndarray) -> _Lines:
    """The lines of a dense table, in the table's dtype: a slice of rows is
    a view, and a block of columns is read transposed."""
    return _Lines(
        table.shape[0],
        table.__getitem__,
        lambda idx: table[:, idx].T,
        lambda u, v: _table_pairs(table, u, v),
    )


def _ring_lines(ring: StarRing) -> Tuple[_Lines, _Lines]:
    """The (add, mul) lines of a ring: its own tables when it has them,
    else its backend's blocks, ``add_rows``, ``mul_rows`` and the columns
    of ``mul_lines``. The column side of + is ``add_pairs`` with its
    operands swapped, since commutativity is among what is audited. A
    call-based ring with order^2 above ``VALIDATION_TABLE_CAP`` is refused,
    under the name "transient table" that the refusal's output carries."""
    backend = ring._backend
    if ring.has_tables():
        return _table_lines(backend.add_table), _table_lines(backend.mul_table)
    if ring.order * ring.order > VALIDATION_TABLE_CAP:
        raise OrderCapExceeded(
            ring.order * ring.order, VALIDATION_TABLE_CAP, what="transient table"
        )
    every = np.arange(ring.order)
    mul_cols = backend.mul_lines(every)[1]
    add = _Lines(
        ring.order,
        lambda idx: backend.add_rows(every[idx]),
        lambda idx: backend.add_pairs(every, every[idx][:, None]),
        backend.add_pairs,
    )
    mul = _Lines(
        ring.order,
        lambda idx: backend.mul_rows(every[idx]),
        lambda idx: mul_cols(every[idx]),
        backend.mul_pairs,
    )
    return add, mul


# --- additive subgroups -------------------------------------------------------


def _greedy_span(
    add_pairs, members: np.ndarray, steps: Optional[list] = None
) -> Tuple[np.ndarray, List[int]]:
    """The additive subgroup H the flagged members generate, as flags, and
    a greedy generating set G of it: while a member lies outside H, the
    lowest one, s, joins G, and H grows by the cosets H + s, H + 2s, ...,
    one ``add_pairs`` shift at a time, until a shift lands back in H. Each
    flagged element is a left-normed sum (...((0 + g1) + g2) ...) + gk
    over G, even where + is not a group law (the audit's corrupted tables);
    s itself is flagged by the first shift, as 0 + s = s in every ring.
    Each shift that grows H is appended to ``steps``, when given, as
    (coset, s, coset + s): every element of H but 0 is first flagged in
    exactly one of them, in the order of the walk.
    """
    spanned = np.zeros(len(members), dtype=bool)
    spanned[0] = True
    gens: List[int] = []
    while True:
        outside = np.flatnonzero(members & ~spanned)
        if not len(outside):
            return spanned, gens
        s = int(outside[0])
        gens.append(s)
        coset = np.flatnonzero(spanned)
        shift = np.full(len(coset), s, dtype=np.int64)
        while True:
            shifted = add_pairs(coset, shift)
            if spanned[shifted[0]]:
                break
            if steps is not None:
                steps.append((coset, s, shifted))
            spanned[shifted] = True
            coset = shifted


def _tables_along_generators(ring: StarRing) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only + and * tables of the ring, in
    :func:`index_dtype`, from one row of each per greedy additive
    generator and gathers for the rest.

    The walk of :func:`_greedy_span` first reaches every element but 0 as
    c + s, with s a generator and c reached before it. + is associative, so
    row c + s of + is (c + s) + d = c + (s + d), row c read through row s,
    a coset of rows at a time; and by right distributivity (c + s) d =
    c d + s d, the sums of rows c and s of * read off the finished + table.
    Row 0 is the identity of + and, as 0 d = (0 + 0) d = 0 d + 0 d, zero
    in *."""
    n = ring.order
    add = np.empty((n, n), dtype=index_dtype(n))
    mul = np.empty_like(add)
    add[0] = np.arange(n)
    mul[0] = 0
    steps: list = []
    gens = _greedy_span(ring.add_pairs, np.ones(n, dtype=bool), steps)[1]
    add_of = dict(zip(gens, ring.add_rows(gens)))
    mul_of = dict(zip(gens, ring.mul_rows(gens)))
    for coset, s, shifted in steps:
        add[shifted] = _table_pairs(add, coset[:, None], add_of[s])
    for coset, s, shifted in steps:
        mul[shifted] = _table_pairs(add, mul[coset], mul_of[s])
    add.setflags(write=False)
    mul.setflags(write=False)
    return add, mul

