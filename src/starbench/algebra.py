"""Scalar algebras: a commutative unital *-ring K acting on a *-ring R.

The action is a table action[lam, a] -> index of lam.a, validated
exhaustively at construction against every axiom it must satisfy:

* biadditivity in both arguments,
* associativity with K's multiplication and with R's multiplication
  (lam.(ab) = (lam.a)b = a(lam.b)),
* unit action (1_K . a = a),
* star compatibility ((lam.a)* = lam*.a*).

The only built-in action is "natural": K = Z(m) acting by repeated addition,
defined exactly when char(R) divides m. An explicit table can be supplied
instead; it is validated the same way.

Two structural flags are recorded, not assumed: whether K is an integral
domain and whether R is K-torsion-free. Downstream verification reports cite
them so that runs outside the classical setting are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

import numpy as np

from .descriptor import Cyclic
from .errors import (
    ActionAxiomViolation,
    CharacteristicMismatch,
    DescriptorError,
)
from .rings import StarRing


@dataclass(frozen=True)
class ScalarAlgebra:
    ring: StarRing
    scalars: StarRing
    action: np.ndarray = field(repr=False)  # (|K|, |R|) int32, read-only
    action_kind: str  # "natural" or "table"
    torsion_free: bool
    k_is_domain: bool

    @property
    def label(self) -> str:
        return "%s over %s" % (self.ring.label, self.scalars.label)

    def act(self, lam: int, a: int) -> int:
        return int(self.action[lam, a])

    def action_row(self, lam: int) -> np.ndarray:
        return self.action[lam].astype(np.int64)

    def describe(self) -> dict:
        return {
            "ring": self.ring.label,
            "scalars": self.scalars.label,
            "action": self.action_kind,
            "torsion_free": self.torsion_free,
            "k_is_domain": self.k_is_domain,
        }


def _natural_action(ring: StarRing, scalars: StarRing) -> np.ndarray:
    if not isinstance(scalars.descriptor, Cyclic):
        raise DescriptorError("the natural action needs cyclic scalars Z(m)")
    m = scalars.descriptor.modulus
    if m % ring.characteristic != 0:
        raise CharacteristicMismatch(ring.characteristic, m)
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    rows = np.empty((m, n), dtype=np.int32)
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
    """Assemble and exhaustively validate a scalar algebra.

    Every axiom is checked for every scalar and element, in a fixed order:
    unit action, additive and multiplicative in the scalar (one (mu, a)
    grid per lam), additive in the element and associative on the right
    (one pass over R's rows, every lam at once), associative on the left
    (one pass over R's columns), and star compatibility. The passes collect
    violation flags per (lam, a) and then name the first in (lam, a, b)
    order, left before right at the same (lam, a), exactly as loops over
    lam, a and b would. They go through add_row, mul_row, mul_col and
    add_pairs, so tabled and call-based rings share one path and no
    transient n^2 table is built.

    Raises ActionAxiomViolation (with the axiom name and a literal witness)
    when any axiom fails, CharacteristicMismatch when the natural action is
    undefined, and DescriptorError for non-cyclic natural scalars.
    """
    K = scalars
    R = ring
    if K.unity is None:
        raise ActionAxiomViolation("scalars-unital", ())
    kmul = K.mul_table()
    sym = kmul != kmul.T
    if sym.any():
        lam, mu = _first_true(sym)
        raise ActionAxiomViolation(
            "scalars-commutative", (K.decode(lam), K.decode(mu))
        )

    if isinstance(action, str):
        if action != "natural":
            raise DescriptorError("unknown action %r" % (action,))
        table = _natural_action(R, K)
        kind = "natural"
    else:
        table = np.asarray(action, dtype=np.int32)
        if table.shape != (K.order, R.order):
            raise DescriptorError(
                "action table must have shape (|K|, |R|) = (%d, %d), got %r"
                % (K.order, R.order, table.shape)
            )
        if table.min() < 0 or table.max() >= R.order:
            raise DescriptorError("action table entries must be element indices")
        kind = "table"
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.setflags(write=False)

    nk, nr = K.order, R.order
    idx_r = np.arange(nr, dtype=np.int64)
    table64 = table.astype(np.int64)

    # 1_K . a = a
    unit_row = table64[K.unity]
    if not np.array_equal(unit_row, idx_r):
        a = int(np.argmax(unit_row != idx_r))
        raise ActionAxiomViolation("unit-action", (R.decode(a),))

    # (lam + mu).a = lam.a + mu.a: one (mu, a) grid per lam
    for lam in range(nk):
        lhs = table64[K.add_row(lam)]
        rhs = _add_grid(R, np.broadcast_to(table64[lam], table64.shape), table64)
        neq = lhs != rhs
        if neq.any():
            mu, a = _first_true(neq)
            raise ActionAxiomViolation(
                "additive-in-scalar", (K.decode(lam), K.decode(mu), R.decode(a))
            )

    # (lam mu).a = lam.(mu.a): one (mu, a) grid per lam
    for lam in range(nk):
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
    for a in range(nr):
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
    for b in range(nr):
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
    for lam in range(nk):
        lhs = rstar[table64[lam]]
        rhs = table64[int(kstar[lam])][rstar]
        neq = lhs != rhs
        if neq.any():
            a = int(np.argmax(neq))
            raise ActionAxiomViolation("star-action", (K.decode(lam), R.decode(a)))

    # structural flags (recorded, never assumed)
    torsion_free = True
    if nk > 1 and nr > 1:
        torsion_free = not bool((table64[1:, 1:] == 0).any())

    k_is_domain = K.order >= 2
    if k_is_domain:
        nonzero_products = kmul[1:, 1:]
        k_is_domain = not bool((nonzero_products == 0).any())

    return ScalarAlgebra(
        ring=R,
        scalars=K,
        action=table,
        action_kind=kind,
        torsion_free=torsion_free,
        k_is_domain=k_is_domain,
    )
