"""Ring descriptors: the value-level language from which rings are built.

A descriptor is an immutable tree. Four constructors exist:

* ``Cyclic(m)`` — the ring of integers mod m with the identity involution.
* ``Matrix(n, base)`` — n-by-n matrices over a cyclic base ring, with the
  transpose involution (the cyclic base's star is the identity).
* ``Product(left, right)`` — the direct product with componentwise involution.
* ``SubringClosure(parent, generators)`` — the smallest subset of the parent
  containing the generators and closed under +, -, * (both product and star);
  it inherits the parent's operations.

Element literals are canonical Python values: ``int`` for cyclic rings,
tuples of tuples of ints for matrix rings, and 2-tuples for products. The
same shapes appear in JSON with tuples rendered as lists.

Descriptors have a canonical DSL rendering (``to_dsl``) and a stable
content hash of their JSON rendering (``to_json``), used as the cache and
golden-store key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Tuple, Union

from .errors import ORDER_BOUND, DescriptorError, LiteralError


@dataclass(frozen=True)
class Cyclic:
    modulus: int


@dataclass(frozen=True)
class Matrix:
    size: int
    base: Cyclic


@dataclass(frozen=True)
class Product:
    left: "Descriptor"
    right: "Descriptor"


@dataclass(frozen=True)
class SubringClosure:
    parent: "Descriptor"
    generators: Tuple[Any, ...]


Descriptor = Union[Cyclic, Matrix, Product, SubringClosure]


def validate_descriptor(d: Descriptor) -> None:
    """Check constructor invariants; raises DescriptorError on the first hit."""
    if isinstance(d, Cyclic):
        if not isinstance(d.modulus, int) or d.modulus < 1:
            raise DescriptorError("cyclic modulus must be an integer >= 1, got %r" % (d.modulus,))
    elif isinstance(d, Matrix):
        if not isinstance(d.size, int) or d.size < 1:
            raise DescriptorError("matrix size must be an integer >= 1, got %r" % (d.size,))
        if not isinstance(d.base, Cyclic):
            raise DescriptorError("matrix base must be a cyclic ring")
        validate_descriptor(d.base)
    elif isinstance(d, Product):
        validate_descriptor(d.left)
        validate_descriptor(d.right)
    elif isinstance(d, SubringClosure):
        validate_descriptor(d.parent)
        if len(d.generators) < 1:
            raise DescriptorError("subring closure needs at least one generator")
        for g in d.generators:
            check_literal_shape(d.parent, g)
    else:
        raise DescriptorError("not a descriptor: %r" % (d,))


def check_literal_shape(d: Descriptor, lit: Any) -> None:
    """Validate that ``lit`` has the right shape for elements of ``d``.

    Shape only: range reduction (mod m) happens in the codec, and membership
    in a subring carrier is only decidable once the ring is built.
    """
    if isinstance(d, Cyclic):
        if not isinstance(lit, int) or isinstance(lit, bool):
            raise LiteralError("cyclic element literal must be an int, got %r" % (lit,))
    elif isinstance(d, Matrix):
        if not isinstance(lit, tuple) or len(lit) != d.size:
            raise LiteralError(
                "matrix literal must be a %d-tuple of rows, got %r" % (d.size, lit)
            )
        for row in lit:
            if not isinstance(row, tuple) or len(row) != d.size:
                raise LiteralError("matrix row must be a %d-tuple, got %r" % (d.size, row))
            for entry in row:
                check_literal_shape(d.base, entry)
    elif isinstance(d, Product):
        if not isinstance(lit, tuple) or len(lit) != 2:
            raise LiteralError("product element literal must be a pair, got %r" % (lit,))
        check_literal_shape(d.left, lit[0])
        check_literal_shape(d.right, lit[1])
    elif isinstance(d, SubringClosure):
        check_literal_shape(d.parent, lit)
    else:
        raise DescriptorError("not a descriptor: %r" % (d,))


def literal_to_dsl(d: Descriptor, lit: Any) -> str:
    """Render a canonical literal as DSL text, guided by the descriptor.

    Guidance matters: a 2x2 matrix over Z(m) and a pair of pairs are the same
    Python value, but render as [[a, b], [c, d]] and ((a, b), (c, d)).
    """
    if isinstance(d, Cyclic):
        return str(lit)
    if isinstance(d, Matrix):
        rows = ", ".join(
            "[" + ", ".join(literal_to_dsl(d.base, e) for e in row) + "]"
            for row in lit
        )
        return "[" + rows + "]"
    if isinstance(d, Product):
        return "(%s, %s)" % (
            literal_to_dsl(d.left, lit[0]),
            literal_to_dsl(d.right, lit[1]),
        )
    if isinstance(d, SubringClosure):
        return literal_to_dsl(d.parent, lit)
    raise DescriptorError("not a descriptor: %r" % (d,))


def literal_to_json(lit: Any) -> Any:
    """Tuples become lists; ints pass through."""
    if isinstance(lit, int):
        return lit
    if isinstance(lit, tuple):
        return [literal_to_json(p) for p in lit]
    raise LiteralError("cannot serialize literal %r" % (lit,))


def to_dsl(d: Descriptor) -> str:
    """Canonical DSL text; parsing it back yields an equal descriptor."""
    if isinstance(d, Cyclic):
        return "Z(%d)" % d.modulus
    if isinstance(d, Matrix):
        return "M(%d, %s)" % (d.size, to_dsl(d.base))
    if isinstance(d, Product):
        return "prod(%s, %s)" % (to_dsl(d.left), to_dsl(d.right))
    if isinstance(d, SubringClosure):
        gens = ", ".join(literal_to_dsl(d.parent, g) for g in d.generators)
        return "sub(%s; %s)" % (to_dsl(d.parent), gens)
    raise DescriptorError("not a descriptor: %r" % (d,))


def to_json(d: Descriptor) -> dict:
    """The JSON rendering that descriptor_hash digests."""
    if isinstance(d, Cyclic):
        return {"kind": "cyclic", "modulus": d.modulus}
    if isinstance(d, Matrix):
        return {"kind": "matrix", "size": d.size, "base": to_json(d.base)}
    if isinstance(d, Product):
        return {"kind": "product", "left": to_json(d.left), "right": to_json(d.right)}
    if isinstance(d, SubringClosure):
        return {
            "kind": "subring",
            "parent": to_json(d.parent),
            "generators": [literal_to_json(g) for g in d.generators],
        }
    raise DescriptorError("not a descriptor: %r" % (d,))


def descriptor_hash(d: Descriptor) -> str:
    """Stable content hash (hex sha256 of the canonical JSON)."""
    blob = json.dumps(to_json(d), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def structural_order(d: Descriptor) -> int:
    """Order of the ring a descriptor denotes, without building it, or
    ORDER_BOUND when it is at least that: every cap lies below the bound,
    so no power is taken past its length.

    For SubringClosure the closure size is unknown until computed, so the
    parent's order is returned as an upper bound.
    """
    if isinstance(d, Cyclic):
        return min(d.modulus, ORDER_BOUND)
    if isinstance(d, Matrix):
        m, entries = d.base.modulus, d.size * d.size
        # m^(k^2) >= 2^((bits(m) - 1) k^2)
        if (m.bit_length() - 1) * entries >= ORDER_BOUND.bit_length():
            return ORDER_BOUND
        return min(m**entries, ORDER_BOUND)
    if isinstance(d, Product):
        return min(structural_order(d.left) * structural_order(d.right), ORDER_BOUND)
    if isinstance(d, SubringClosure):
        return structural_order(d.parent)
    raise DescriptorError("not a descriptor: %r" % (d,))
