"""Definition-level reference implementations used to check the fast paths.

Everything here works from the glossary definitions using only the scalar
ring operations (add, mul, neg, star as index functions), python sets and
explicit loops. No bitsets, no vectorization, no shared scans; slow on
purpose. Tests compare these against the package implementations and the
golden store freezes values computed this way.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


def o_elements(ring) -> range:
    return range(ring.order)


def o_unity(ring) -> Optional[int]:
    """The element e with e x = x = x e for every x, if any."""
    for e in o_elements(ring):
        if all(ring.mul(e, x) == x and ring.mul(x, e) == x for x in o_elements(ring)):
            return e
    return None


def o_additive_order(ring, x: int) -> int:
    """Least k >= 1 with x + x + ... + x (k terms) = 0."""
    k, total = 1, x
    while total != 0:
        total = ring.add(total, x)
        k += 1
    return k


def o_characteristic(ring) -> int:
    """Least k >= 1 with k.x = 0 for every x, adding every x to itself k
    times in lockstep."""
    xs = list(o_elements(ring))
    k, totals = 1, list(xs)
    while any(totals):
        totals = [ring.add(t, x) for t, x in zip(totals, xs)]
        k += 1
    return k


# caches hold a strong reference to the ring so an id is never recycled
_proj_cache: Dict[int, Tuple[object, List[int]]] = {}
_central_cache: Dict[int, Tuple[object, List[int]]] = {}


def o_projections(ring) -> List[int]:
    key = id(ring)
    if key not in _proj_cache:
        found = [
            e
            for e in o_elements(ring)
            if ring.mul(e, e) == e and ring.star(e) == e
        ]
        _proj_cache[key] = (ring, found)
    return _proj_cache[key][1]


def o_is_central(ring, e: int) -> bool:
    return all(ring.mul(e, x) == ring.mul(x, e) for x in o_elements(ring))


def o_central_projections(ring) -> List[int]:
    key = id(ring)
    if key not in _central_cache:
        found = [e for e in o_projections(ring) if o_is_central(ring, e)]
        _central_cache[key] = (ring, found)
    return _central_cache[key][1]


def o_leq(ring, e: int, f: int) -> bool:
    """e <= f among projections: ef = e = fe."""
    return ring.mul(e, f) == e and ring.mul(f, e) == e


def o_rann(ring, xs: Sequence[int]) -> Set[int]:
    return {
        y
        for y in o_elements(ring)
        if all(ring.mul(x, y) == 0 for x in xs)
    }


def o_lann(ring, xs: Sequence[int]) -> Set[int]:
    return {
        y
        for y in o_elements(ring)
        if all(ring.mul(y, x) == 0 for x in xs)
    }


def o_right_ideal_of_projection(ring, e: int) -> Set[int]:
    return {ring.mul(e, y) for y in o_elements(ring)}


def o_left_ideal_of_projection(ring, e: int) -> Set[int]:
    return {ring.mul(y, e) for y in o_elements(ring)}


def o_additive_closure(ring, gens: Sequence[int]) -> Set[int]:
    gens = sorted(set(gens))
    out = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u in frontier:
            for g in gens:
                for v in (ring.add(u, g), ring.add(u, ring.neg(g))):
                    if v not in out:
                        out.add(v)
                        nxt.add(v)
        frontier = nxt
    return out


def o_subring(ring, gens: Sequence[int]) -> Set[int]:
    """The smallest set holding 0 and gens that is closed under +, -, *
    and star: a fixpoint over Python sets, where each new element meets
    every element found so far, from both sides."""
    out: Set[int] = set()
    frontier = {0, *gens}
    while frontier:
        out |= frontier
        made = set()
        for x in frontier:
            made.update((ring.neg(x), ring.star(x)))
            for y in out:
                made.update((ring.add(x, y), ring.mul(x, y), ring.mul(y, x)))
        frontier = made - out
    return out


def o_right_multiples(ring, a: int) -> Set[int]:
    """The value set {a r : r in R}. It is aR itself, closed under + in any
    ring (ar + as = a(r + s)), so this is o_principal_right_ideal without
    the closure, which costs |aR| |R| steps."""
    return {ring.mul(a, r) for r in o_elements(ring)}


def o_left_multiples(ring, a: int) -> Set[int]:
    """The value set {r a : r in R}, Ra itself."""
    return {ring.mul(r, a) for r in o_elements(ring)}


def o_principal_right_ideal(ring, a: int) -> Set[int]:
    """aR as a set (no unity assumed, so a itself may be missing)."""
    return o_additive_closure(ring, [ring.mul(a, r) for r in o_elements(ring)])


def o_principal_left_ideal(ring, a: int) -> Set[int]:
    return o_additive_closure(ring, [ring.mul(r, a) for r in o_elements(ring)])


def o_principal_two_sided_ideal(ring, a: int) -> Set[int]:
    gens = [a]
    gens += [ring.mul(a, r) for r in o_elements(ring)]
    gens += [ring.mul(r, a) for r in o_elements(ring)]
    gens += [
        ring.mul(ring.mul(r, a), s)
        for r in o_elements(ring)
        for s in o_elements(ring)
    ]
    return o_additive_closure(ring, gens)


def o_rp(ring, x: int) -> Optional[int]:
    """The projection e with xe = x and (xy = 0 implies ey = 0), if any.

    Uniqueness is a theorem; the oracle asserts it rather than assuming."""
    found = []
    killers = o_rann(ring, [x])
    for e in o_projections(ring):
        if ring.mul(x, e) != x:
            continue
        if all(ring.mul(e, y) == 0 for y in killers):
            found.append(e)
    assert len(found) <= 1, (x, found)
    return found[0] if found else None


def o_lp(ring, x: int) -> Optional[int]:
    found = []
    killers = o_lann(ring, [x])
    for e in o_projections(ring):
        if ring.mul(e, x) != x:
            continue
        if all(ring.mul(y, e) == 0 for y in killers):
            found.append(e)
    assert len(found) <= 1, (x, found)
    return found[0] if found else None


def o_central_cover(ring, x: int) -> Optional[int]:
    """Smallest central projection h with hx = x, when the set of fixers
    has a least member."""
    fixers = [
        h for h in o_central_projections(ring) if ring.mul(h, x) == x
    ]
    for h in fixers:
        if all(o_leq(ring, h, k) for k in fixers):
            return h
    return None


def o_proper(ring) -> Optional[int]:
    """First x != 0 with x*x = 0, else None (None means proper)."""
    for x in o_elements(ring):
        if x != 0 and ring.mul(ring.star(x), x) == 0:
            return x
    return None


def o_semi_proper(ring) -> Optional[int]:
    for a in o_elements(ring):
        if a == 0:
            continue
        sa = ring.star(a)
        if all(ring.mul(ring.mul(a, r), sa) == 0 for r in o_elements(ring)):
            return a
    return None


def o_reduced(ring) -> Optional[int]:
    for x in o_elements(ring):
        if x != 0 and ring.mul(x, x) == 0:
            return x
    return None


def o_abelian(ring) -> Optional[int]:
    """First non-central idempotent (projections or not), else None."""
    for e in o_elements(ring):
        if ring.mul(e, e) == e and not o_is_central(ring, e):
            return e
    return None


def o_weakly_rickart(ring) -> Optional[int]:
    for x in o_elements(ring):
        if o_rp(ring, x) is None:
            return x
    return None


def o_projection_right_ideals(ring) -> Set[FrozenSet[int]]:
    """The right ideals eR of the projections e."""
    return {frozenset(o_right_ideal_of_projection(ring, e)) for e in o_projections(ring)}


def o_rickart_witness(ring) -> Optional[int]:
    """First x whose r(x) is no eR for a projection e, else None."""
    ideals = o_projection_right_ideals(ring)
    for x in o_elements(ring):
        if frozenset(o_rann(ring, [x])) not in ideals:
            return x
    return None


def o_rickart(ring) -> bool:
    """Unity present and every r(x) is eR for a projection e."""
    return ring.unity is not None and o_rickart_witness(ring) is None


def o_baer(ring) -> bool:
    """Every subset annihilator is eR, over every subset: r(S) is the
    intersection of r({s}) over s in S, and R for the empty set, so the
    annihilators of all subsets are the closure of {r({x})} and {R} under
    pairwise intersection, grown until nothing new appears."""
    if ring.unity is None:
        return False
    ideals = o_projection_right_ideals(ring)
    singles = {frozenset(o_rann(ring, [x])) for x in o_elements(ring)}
    seen: Set[FrozenSet[int]] = singles | {frozenset(o_elements(ring))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in singles:
                meet = a & b
                if meet not in seen:
                    seen.add(meet)
                    nxt.append(meet)
        frontier = nxt
    return seen <= ideals


def o_two_sided_ideals(ring) -> List[Set[int]]:
    """All two-sided ideals: every ideal is a sum of principal ones, so
    close the principal ideals under pairwise sum."""
    principal = {
        frozenset(o_principal_two_sided_ideal(ring, a)) for a in o_elements(ring)
    }
    seen: Set[FrozenSet[int]] = set(principal) | {frozenset({0})}
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for j in principal:
                joined = frozenset(o_additive_closure(ring, sorted(i | j)))
                if joined not in seen:
                    seen.add(joined)
                    nxt.append(joined)
        frontier = nxt
    for ideal in seen:  # each must absorb multiplication on both sides
        assert all(
            ring.mul(x, r) in ideal and ring.mul(r, x) in ideal
            for x in ideal
            for r in o_elements(ring)
        ), sorted(ideal)
    return [set(s) for s in seen]


def o_ideal_generated(ring, gens: Sequence[int]) -> Set[int]:
    """The two-sided ideal the elements gens generate: the additive
    closure of their principal two-sided ideals."""
    members: Set[int] = {0}
    for g in gens:
        members |= o_principal_two_sided_ideal(ring, g)
    return o_additive_closure(ring, sorted(members))


def o_quasi_baer(ring) -> bool:
    if ring.unity is None:
        return False
    ideals = o_projection_right_ideals(ring)
    for ideal in o_two_sided_ideals(ring):
        if frozenset(o_rann(ring, sorted(ideal))) not in ideals:
            return False
    return True


def o_pq_baer(ring) -> bool:
    """r(aR) = eR and l(Ra) = Rf for every a, with unity."""
    if ring.unity is None:
        return False
    rights = o_projection_right_ideals(ring)
    lefts = {frozenset(o_left_ideal_of_projection(ring, f)) for f in o_projections(ring)}
    for a in o_elements(ring):
        if frozenset(o_rann(ring, sorted(o_principal_right_ideal(ring, a)))) not in rights:
            return False
        if frozenset(o_lann(ring, sorted(o_principal_left_ideal(ring, a)))) not in lefts:
            return False
    return True


def o_weakly_pq_baer(ring) -> Optional[int]:
    """First x without a central cover e satisfying xRy = 0 iff ey = 0."""
    for x in o_elements(ring):
        e = o_central_cover(ring, x)
        if e is None or o_sandwich_killers(ring, x) != o_rann(ring, [e]):
            return x
    return None


def o_sandwich_killers(ring, x: int) -> Set[int]:
    """{y : x r y = 0 for every r}, r(xR) without the closure of xR."""
    return {
        y
        for y in o_elements(ring)
        if all(ring.mul(ring.mul(x, r), y) == 0 for r in o_elements(ring))
    }


def o_witness_holds(ring, prop: str, witness) -> bool:
    """Whether a classifier's witness for a false verdict of ``prop`` shows
    the definition failing, read with the oracles; the witness carries
    element literals, as PropertyReport does. A false verdict without a
    witness (unity) is replayed on the whole ring."""
    enc = ring.encode
    if prop == "proper":
        x = enc(witness["x"])
        return x != 0 and ring.mul(ring.star(x), x) == 0
    if prop == "semi-proper":
        x = enc(witness["x"])
        sx = ring.star(x)
        return x != 0 and all(ring.mul(ring.mul(x, r), sx) == 0 for r in o_elements(ring))
    if prop == "reduced":
        x = enc(witness["x"])
        return x != 0 and ring.mul(x, x) == 0
    if prop == "abelian":
        e, y = enc(witness["idempotent"]), enc(witness["witness"])
        return ring.mul(e, e) == e and ring.mul(e, y) != ring.mul(y, e)
    if prop == "unity":
        return witness is None and o_unity(ring) is None
    if prop == "rickart-star":
        return o_rickart_witness(ring) == enc(witness["x"])
    if prop == "weakly-rickart-star":
        return o_rp(ring, enc(witness["x"])) is None
    if prop in ("baer-star", "quasi-baer-star"):
        if prop == "baer-star":
            members = [enc(g) for g in witness["generators"]]
        else:
            members = sorted(o_ideal_generated(ring, [enc(g) for g in witness["ideal_generators"]]))
        ann = frozenset(o_rann(ring, members))
        return len(ann) == witness["annihilator_size"] and ann not in o_projection_right_ideals(ring)
    if prop == "pq-baer-star":
        a = enc(witness["a"])
        if witness["side"] == "right":
            ann = o_rann(ring, sorted(o_principal_right_ideal(ring, a)))
            return frozenset(ann) not in o_projection_right_ideals(ring)
        ann = o_lann(ring, sorted(o_principal_left_ideal(ring, a)))
        lefts = {frozenset(o_left_ideal_of_projection(ring, f)) for f in o_projections(ring)}
        return frozenset(ann) not in lefts
    if prop == "weakly-pq-baer-star":
        x = enc(witness["x"])
        e = o_central_cover(ring, x)
        if witness["reason"] == "no-central-cover":
            return e is None
        return e is not None and o_sandwich_killers(ring, x) != o_rann(ring, [e])
    raise ValueError("no witness to replay for %s" % prop)


def o_action_natural(ring, modulus: int) -> Dict[Tuple[int, int], int]:
    """lam.a = a added to itself lam times, for lam in Z(modulus)."""
    table = {}
    for lam in range(modulus):
        for a in range(ring.order):
            acc = 0
            for _ in range(lam):
                acc = ring.add(acc, a)
            table[(lam, a)] = acc
    return table


def o_kernel_N(ring, scalars, act) -> Set[Tuple[int, int]]:
    """{(a, lam) : a x + lam.x = 0 for all x}; ``act(lam, a)`` supplies the
    module action."""
    out = set()
    for a in range(ring.order):
        for lam in range(scalars.order):
            if all(
                ring.add(ring.mul(a, x), act(lam, x)) == 0
                for x in range(ring.order)
            ):
                out.add((a, lam))
    return out


def o_condition3(algebra) -> Dict[int, Optional[int]]:
    """For each nonzero lam: the least projection dominating LP(x) for all
    x with lam.x = 0, or None when no projection dominates them all."""
    ring = algebra.ring
    out: Dict[int, Optional[int]] = {}
    projections = o_projections(ring)
    for lam in range(1, algebra.scalars.order):
        killed = [x for x in range(ring.order) if algebra.act(lam, x) == 0]
        lps = [o_lp(ring, x) for x in killed]
        if any(e is None for e in lps):
            out[lam] = None
            continue
        cands = [
            e
            for e in projections
            if all(o_leq(ring, lp_x, e) for lp_x in lps)
        ]
        least = None
        for e in cands:
            if all(o_leq(ring, e, f) for f in cands):
                least = e
                break
        out[lam] = least if least is not None else (min(cands) if cands else None)
    return out


def o_condition_beta(algebra) -> Dict[int, Optional[int]]:
    ring = algebra.ring
    out: Dict[int, Optional[int]] = {}
    projections = o_projections(ring)
    for lam in range(1, algebra.scalars.order):
        killed = [x for x in range(ring.order) if algebra.act(lam, x) == 0]
        covers = [o_central_cover(ring, x) for x in killed]
        if any(e is None for e in covers):
            out[lam] = None
            continue
        cands = [
            e
            for e in projections
            if all(o_leq(ring, c, e) for c in covers)
        ]
        least = None
        for e in cands:
            if all(o_leq(ring, e, f) for f in cands):
                least = e
                break
        out[lam] = least if least is not None else (min(cands) if cands else None)
    return out


def o_quotient_cosets(r1, kernel_pairs: Set[int]) -> List[List[int]]:
    """Partition of pair indices into cosets of the kernel, each sorted."""
    cosets = []
    seen = set()
    for p in range(r1.order):
        if p in seen:
            continue
        coset = sorted(r1.add(p, u) for u in kernel_pairs)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def unaudited_ring(add, mul, neg, star, literals=None, label="raw"):
    """A StarRing served from the given tables without the *-ring audit that
    StarRing.from_tables runs: the one way tests build a ring that is not a
    *-ring, to hand the audit tables that break an axiom."""
    import numpy as np

    from starbench.rings import StarRing, _Literals, _TablesBackend, index_dtype

    dtype = index_dtype(len(add))
    add, mul = np.array(add, dtype=dtype), np.array(mul, dtype=dtype)
    add.setflags(write=False)
    mul.setflags(write=False)
    backend = _TablesBackend(add, mul, neg, star, _Literals(len(add), literals))
    return StarRing(backend, label=label)


def tables(ring):
    """The (add, mul) tables of a ring, int64, stacked from its rows
    ``add_row(i)`` and ``mul_row(i)`` for every i: a reference that does
    not go through the tables a tabled ring is served from, nor through
    ``StarRing.tabled``."""
    import numpy as np

    add = np.array([ring.add_row(i) for i in range(ring.order)], dtype=np.int64)
    mul = np.array([ring.mul_row(i) for i in range(ring.order)], dtype=np.int64)
    return add, mul
