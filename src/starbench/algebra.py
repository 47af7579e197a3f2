"""Scalar algebras: a commutative unital *-ring K acting on a *-ring R.

The action is a table action[lam, a] -> index of lam.a, proved at
construction to satisfy, for every scalar and element, every axiom it must
satisfy:

* biadditivity in both arguments,
* associativity with K's multiplication and with R's multiplication
  (lam.(ab) = (lam.a)b = a(lam.b)),
* unit action (1_K . a = a),
* star compatibility ((lam.a)* = lam*.a*).

Each axiom has one pass, which takes the scalars and elements it loops
over. R and K are *-rings (every StarRing is), so the passes run on the
additive generators of K and of R, which proves every axiom everywhere
(see _check_every_axiom), and K's commutativity is checked on K's
generators alike. Only after a violation there do they run over every
scalar and element, to name the first witness.

The only built-in action is "natural": K = Z(m) acting by repeated addition,
defined exactly when char(R) divides m. An explicit table can be supplied
instead; it is validated the same way.

Two structural flags are recorded, not assumed: whether K is an integral
domain and whether R is K-torsion-free. Downstream verification reports cite
them so that runs outside the classical setting are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .descriptor import Cyclic
from .errors import (
    ActionAxiomViolation,
    CharacteristicMismatch,
    DescriptorError,
)
from .rings import StarRing, index_dtype


@dataclass(frozen=True)
class ScalarAlgebra:
    ring: StarRing
    scalars: StarRing
    action: np.ndarray = field(repr=False)  # (|K|, |R|) index_dtype(|R|), read-only
    torsion_free: bool
    k_is_domain: bool

    def act(self, lam: int, a: int) -> int:
        return int(self.action[lam, a])

    def action_row(self, lam: int) -> np.ndarray:
        return self.action[lam].astype(np.int64)


def _natural_action(ring: StarRing, scalars: StarRing) -> np.ndarray:
    if not isinstance(scalars.descriptor, Cyclic):
        raise DescriptorError("the natural action needs cyclic scalars Z(m)")
    m = scalars.descriptor.modulus
    if m % ring.characteristic != 0:
        raise CharacteristicMismatch(ring.characteristic, m)
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    rows = np.empty((m, n), dtype=index_dtype(n))
    cur = np.zeros(n, dtype=np.int64)
    for lam in range(m):
        rows[lam] = cur
        cur = ring.add_pairs(cur, idx)
    return rows


def _first_true(mask: np.ndarray) -> Tuple[int, ...]:
    flat = int(np.argmax(mask))
    return tuple(int(c) for c in np.unravel_index(flat, mask.shape))


def _add_grid(R: StarRing, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R's sums of two index grids of one shape, entry by entry."""
    return R.add_pairs(u.ravel(), v.ravel()).reshape(u.shape)


def build_scalar_algebra(
    ring: StarRing,
    scalars: StarRing,
    action: Union[str, np.ndarray] = "natural",
) -> ScalarAlgebra:
    """Assemble a scalar algebra and prove every axiom over every scalar
    and element.

    The scalars must be unital and commutative, the table well shaped, and
    1_K must act as the identity; these are checked directly, reading K a
    row at a time, so a call-based K needs no table. Commutativity is
    checked on K's additive generators (see :func:`_first_noncommuting`).

    The other axioms are checked by :func:`_check_every_axiom` on the
    additive generators of K and R, a proof if every pass holds; only
    after a violation there over every scalar and element, to name the
    first witness.

    Raises ActionAxiomViolation (with the axiom name and a literal witness)
    when any axiom fails, CharacteristicMismatch when the natural action is
    undefined, and DescriptorError for non-cyclic natural scalars.
    """
    K = scalars
    R = ring
    if K.unity is None:
        raise ActionAxiomViolation("scalars-unital", ())
    if _first_noncommuting(K, K.generators or (0,)) is not None:
        # a real violation; name the first over every scalar
        lam, mu = _first_noncommuting(K, range(K.order))
        raise ActionAxiomViolation("scalars-commutative", (K.decode(lam), K.decode(mu)))

    if isinstance(action, str):
        if action != "natural":
            raise DescriptorError("unknown action %r" % (action,))
        table = _natural_action(R, K)
    else:
        table = np.asarray(action, dtype=np.int64)
        if table.shape != (K.order, R.order):
            raise DescriptorError(
                "action table must have shape (|K|, |R|) = (%d, %d), got %r"
                % (K.order, R.order, table.shape)
            )
        if table.min() < 0 or table.max() >= R.order:
            raise DescriptorError("action table entries must be element indices")
    table = np.ascontiguousarray(table, dtype=index_dtype(R.order))
    table.setflags(write=False)

    nk, nr = K.order, R.order
    idx_r = np.arange(nr, dtype=np.int64)
    table64 = table.astype(np.int64)

    # 1_K . a = a
    unit_row = table64[K.unity]
    if not np.array_equal(unit_row, idx_r):
        a = int(np.argmax(unit_row != idx_r))
        raise ActionAxiomViolation("unit-action", (R.decode(a),))

    try:
        _check_every_axiom(R, K, table64, K.generators or (0,), R.generators)
    except ActionAxiomViolation:
        _check_every_axiom(R, K, table64)  # a real violation; name the first
        raise

    # structural flags (recorded, never assumed)
    torsion_free = True
    if nk > 1 and nr > 1:
        torsion_free = not bool((table64[1:, 1:] == 0).any())

    k_is_domain = K.order >= 2 and first_zero_divisor(K) is None

    return ScalarAlgebra(
        ring=R,
        scalars=K,
        action=table,
        torsion_free=torsion_free,
        k_is_domain=k_is_domain,
    )


def _first_noncommuting(K: StarRing, scalars) -> Optional[Tuple[int, int]]:
    """The first (lam, mu), lam in ``scalars`` (ascending) and mu over
    every scalar, with lam mu != mu lam; None when there is none. In a
    ring the lam that commute with every mu are closed under +, by
    distributivity, so with ``scalars`` the additive generators of K (0
    when K = {0}) None is a proof that K is commutative."""
    for lam in scalars:
        neq = K.mul_row(lam) != K.mul_col(lam)
        if neq.any():
            return int(lam), int(np.argmax(neq))
    return None


def first_zero_divisor(K: StarRing) -> Optional[Tuple[int, int]]:
    """The first (lam, mu) in row-major order with lam, mu nonzero and
    lam mu = 0, read one row of K at a time; None when there is none."""
    for lam in range(1, K.order):
        zeros = np.flatnonzero(K.mul_row(lam)[1:] == 0)
        if len(zeros):
            return lam, int(zeros[0]) + 1
    return None


def _check_every_axiom(
    R: StarRing, K: StarRing, table64: np.ndarray, scalars=None, elems=None
) -> None:
    """The passes of build_scalar_algebra, after the unit action: raise
    ActionAxiomViolation for the first axiom that fails, with its first
    witness.

    The passes run in a fixed order: additive and multiplicative in the
    scalar (one (mu, a) grid per lam), additive in the element and
    associative on the right (one pass over R's rows, every lam at once),
    associative on the left (one pass over R's columns), and star
    compatibility. They collect violation flags per (lam, a) and then name
    the first in (lam, a, b) order, left before right at the same (lam,
    a), exactly as loops over lam, a and b would. They go through add_row,
    mul_row, mul_col and add_pairs, so tabled and call-based rings share
    one path and no transient n^2 table is built.

    The scalar passes loop over lam in ``scalars`` and the row and column
    passes over a and b in ``elems`` (everything where None); the other
    coordinates range over everything, so every violation found is real.
    With R and K *-rings, K commutative, and ``scalars`` and ``elems`` the
    additive generators of K (0 when K = {0}) and of R, passing is a proof:
    a nonempty set closed under + that holds the generators is the whole
    group, and the passing set of each restricted coordinate is closed
    under +, by the laws proved before it:

    1. additive in the scalar, in lam:
       (lam + nu + mu).a = lam.a + nu.a + mu.a = (lam + nu).a + mu.a;
    2. multiplicative in the scalar, in lam, by 1:
       ((lam + nu) mu).a = (lam mu).a + (nu mu).a = (lam + nu).(mu.a);
    3. additive in the element and associative on the right, in a:
       lam.(a + a' + b) = lam.a + lam.a' + lam.b and, by that,
       lam.((a + a') b) = lam.(ab) + lam.(a'b) = (a + a')(lam.b);
    4. associative on the left, in b, by 3:
       lam.(a(b + b')) = lam.(ab) + lam.(ab') = (lam.a)(b + b');
    5. star action, in lam, by 1: ((lam + nu).a)* = lam*.a* + nu*.a*.
    """
    nk, nr = K.order, R.order
    scalars = range(nk) if scalars is None else scalars
    elems = range(nr) if elems is None else elems
    # (lam + mu).a = lam.a + mu.a: one (mu, a) grid per lam
    for lam in scalars:
        lhs = table64[K.add_row(lam)]
        rhs = _add_grid(R, np.broadcast_to(table64[lam], table64.shape), table64)
        neq = lhs != rhs
        if neq.any():
            mu, a = _first_true(neq)
            raise ActionAxiomViolation(
                "additive-in-scalar", (K.decode(lam), K.decode(mu), R.decode(a))
            )

    # (lam mu).a = lam.(mu.a): one (mu, a) grid per lam
    for lam in scalars:
        neq = table64[K.mul_row(lam)] != table64[lam][table64]
        if neq.any():
            mu, a = _first_true(neq)
            raise ActionAxiomViolation(
                "multiplicative-in-scalar", (K.decode(lam), K.decode(mu), R.decode(a))
            )

    # lam.(a + b) = lam.a + lam.b and lam.(ab) = a(lam.b): one pass over R's
    # rows, every lam at once; add_bad[lam, a] and right_bad[lam, a] say
    # that some b fails
    add_bad = np.zeros((nk, nr), dtype=bool)
    right_bad = np.zeros((nk, nr), dtype=bool)
    for a in elems:
        lhs = np.take(table64, R.add_row(a), axis=1)
        rhs = _add_grid(R, np.broadcast_to(table64[:, a, None], table64.shape), table64)
        add_bad[:, a] = (lhs != rhs).any(axis=1)
        arow = R.mul_row(a)
        right_bad[:, a] = (np.take(table64, arow, axis=1) != arow[table64]).any(axis=1)
    if add_bad.any():
        lam, a = _first_true(add_bad)
        lam_row = table64[lam]
        lhs = lam_row[R.add_row(a)]
        rhs = R.add_pairs(np.full(nr, lam_row[a], dtype=np.int64), lam_row)
        b = int(np.argmax(lhs != rhs))
        raise ActionAxiomViolation(
            "additive-in-element", (K.decode(lam), R.decode(a), R.decode(b))
        )

    # lam.(ab) = (lam.a)b: one pass over R's columns
    left_bad = np.zeros((nk, nr), dtype=bool)
    for b in elems:
        bcol = R.mul_col(b)
        left_bad |= np.take(table64, bcol, axis=1) != bcol[table64]
    # the first (lam, a) failing either side, left before right
    either = left_bad | right_bad
    if either.any():
        lam, a = _first_true(either)
        lam_row = table64[lam]
        arow = R.mul_row(a)
        if left_bad[lam, a]:
            axiom, neq = "associative-left", lam_row[arow] != R.mul_row(int(lam_row[a]))
        else:
            axiom, neq = "associative-right", lam_row[arow] != arow[lam_row]
        b = int(np.argmax(neq))
        raise ActionAxiomViolation(axiom, (K.decode(lam), R.decode(a), R.decode(b)))

    # (lam.a)* = lam*.a*
    rstar = R.star_vector()
    kstar = K.star_vector()
    for lam in scalars:
        lhs = rstar[table64[lam]]
        rhs = table64[int(kstar[lam])][rstar]
        neq = lhs != rhs
        if neq.any():
            a = int(np.argmax(neq))
            raise ActionAxiomViolation("star-action", (K.decode(lam), R.decode(a)))
