"""Permutations of {0,...,m-1} and generated-subgroup machinery.

A permutation is a plain tuple of images: ``p[i]`` is the image of ``i``.
The composition convention throughout the package is
``compose(p, q)(i) = p(q(i))`` (q acts first). ``integers`` and
``square_table`` check every row and table passed in from outside.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import SizeCapExceeded

Perm = tuple[int, ...]

#: The one default size cap: in group elements for close_group and
#: group_order, in points mⁿ (kⁿ tuples for eq. 3.1) for power. It is
#: --cap's default; every command passes its --cap in its place but
#: brace find, whose λ-groups have at most 6! = 720 elements.
DEFAULT_CAP = 4096


def is_perm(images) -> bool:
    return sorted(images) == list(range(len(images)))


def integers(entries, what, error=ValueError) -> tuple[int, ...]:
    """``entries`` frozen into a tuple of ints, bools included: the one
    check of the entries of a row passed in from outside. ``error`` is
    raised on any other entry."""
    entries = tuple(entries)
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise error(f"{what} contains a non-integer entry: {list(entries)}") from None


def square_table(rows, k, what, error=ValueError) -> tuple[tuple[int, ...], ...]:
    """A table of k rows of k points of {0,...,k-1} each, frozen row by
    row by ``integers``: the one check of a square table passed in from
    outside. ``error`` is raised on the first row that is not such a
    row, then on a wrong row count."""
    table = []
    for a, row in enumerate(rows):
        row = integers(row, f"{what}[{a}]", error)
        if len(row) != k:
            raise error(f"{what} row {a} has length {len(row)}, expected {k}")
        for v in row:
            if not 0 <= v < k:
                raise error(f"{what}[{a}] contains out-of-range entry {v}")
        table.append(row)
    if len(table) != k:
        raise error(f"{what} has {len(table)} rows, expected {k}")
    return tuple(table)


def perm(images) -> Perm:
    """Validate and freeze an image sequence into a Perm of ints."""
    p = integers(images, "image list")
    if not p:
        raise ValueError("empty image list (degree 0 is not allowed)")
    if not is_perm(p):
        raise ValueError(f"not a bijection of {{0,...,{len(p) - 1}}}: {list(p)}")
    return p


def identity(m: int) -> Perm:
    if m < 1:
        raise ValueError("degree must be at least 1")
    return tuple(range(m))


def _right_multiplier(g: Perm):
    """The map e ↦ e∘g at C speed: itemgetter(*g)(e) is (e[g[0]], e[g[1]], ...).
    itemgetter of one index returns the item, not a tuple, so in degree 1,
    whose only permutation is the identity, e is mapped to itself."""
    return operator.itemgetter(*g) if len(g) > 1 else tuple


def compose(p: Perm, q: Perm) -> Perm:
    """(p∘q)(i) = p(q(i)); q is applied first. The package's one
    composition kernel, at C speed through ``_right_multiplier``."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return _right_multiplier(q)(p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    """Multiplicative order of p in Sym_m."""
    step = _right_multiplier(p)
    q = p
    k = 1
    ident = identity(len(p))
    while q != ident:
        q = step(q)
        k += 1
    return k


def all_perms(m: int):
    """All m! permutations of degree m, in lexicographic order."""
    return list(itertools.permutations(range(m)))


@dataclass(frozen=True)
class GeneratedGroup:
    """The subgroup of Sym_m generated by a list of permutations.

    ``generators`` holds every input. ``elements`` is the full closure in
    ``close_group``'s order of discovery: the identity, the rest of the
    group of the first generator, then what each later generator adds.
    """

    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order_multiset(self) -> tuple[int, ...]:
        """Sorted tuple of element orders; an isomorphism invariant."""
        return tuple(sorted(perm_order(e) for e in self.elements))


def _cap_exceeded(cap: int) -> SizeCapExceeded:
    return SizeCapExceeded(f"group closure exceeded cap of {cap} elements")


def _generators(generators, cap: int) -> list[Perm]:
    """Validate a nonempty generator list of one degree, then the cap:
    every group holds its identity, so a cap below 1 is exceeded."""
    gens = [perm(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    m = len(gens[0])
    for g in gens:
        if len(g) != m:
            raise ValueError(f"degree mismatch among generators: {m} vs {len(g)}")
    if cap < 1:
        raise _cap_exceeded(cap)
    return gens


def close_group(generators, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    """Close a nonempty generator list under composition (Dimino's method).

    The elements are kept in one insertion-ordered dict, in order of
    discovery. The generators are taken in input order, and one already
    listed lies in the group of those before it and is skipped. Any other
    extends the closed group, as ``_extend`` grows an orbit: each listed
    element takes one step by it, and each new element every kept step.
    So the walk takes |G|·|S| steps for the set S of generators that
    enlarge the group G, and |S| ≤ log₂|G| (Lagrange). Finite order makes
    inverse-closure automatic. Raises SizeCapExceeded if the closure
    grows past ``cap``.
    """
    gens = _generators(generators, cap)
    elements = {identity(len(gens[0])): None}
    steps = []
    for g in gens:
        if g in elements:
            continue
        steps.append(_right_multiplier(g))
        pending = [(e, steps[-1:]) for e in elements]
        for e, xs in pending:
            for step in xs:
                c = step(e)
                if c not in elements:
                    elements[c] = None
                    pending.append((c, steps))
                    if len(elements) > cap:
                        raise _cap_exceeded(cap)
    return GeneratedGroup(generators=tuple(gens), elements=tuple(elements))


def group_order(generators, cap: int = DEFAULT_CAP) -> int:
    """The order of the group generated by a nonempty generator list, by
    a deterministic Schreier–Sims method (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003), without listing the group.

    Level i of the stabilizer chain holds a base point b_i, the strong
    generators that fix b_0, ..., b_{i-1}, and the orbit of b_i under
    them, each orbit point γ with a coset representative u_γ (u_γ(b_i) = γ)
    and its inverse. Repeated generators are dropped. Generators and
    Schreier generators are sifted in input order, and a residue that
    fixes every base point opens a new level at the first point it moves. The order is the product of the
    orbit lengths. Every partial product is at most the order, so
    SizeCapExceeded (with close_group's message) is raised exactly when
    the order exceeds ``cap``.
    """
    chain = ([], [], [])  # per level: base point, strong generators, orbit
    for g in _generators(dict.fromkeys(map(tuple, generators)), cap):
        _insert(chain, g, 0, cap)
    return math.prod(map(len, chain[2]))


def _insert(chain, g: Perm, top: int, cap: int) -> None:
    """Sift g through the levels from ``top`` on. A residue other than the
    identity fixes the base points above the level where it stopped; it
    becomes a strong generator of that level and of every level up to
    ``top``, deepest first, so each level is closed over a complete
    deeper chain."""
    points, _, orbits = chain
    for level in range(top, len(points)):
        rep = orbits[level].get(g[points[level]])
        if rep is None:
            break
        g = compose(rep[1], g)
    else:
        if g == identity(len(g)):
            return
        level = len(points)
    for i in range(level, top - 1, -1):
        _extend(chain, g, i, cap)


def _extend(chain, g: Perm, i: int, cap: int) -> None:
    """Add g to level i's strong generators and close the level: grow the
    orbit, and insert every new Schreier generator u_{x(β)}⁻¹∘x∘u_β into
    the levels below. On return, levels i and deeper are a complete
    chain for the group their strong generators generate."""
    points, strong, orbits = chain
    if i == len(points):
        b = next(x for x, y in enumerate(g) if x != y)
        ident = identity(len(g))
        points.append(b)
        strong.append([])
        orbits.append({b: (ident, ident)})
    b, gens, orbit = points[i], strong[i], orbits[i]
    gens.append(g)
    # the old orbit points need only g; every new point needs every generator
    pending = [(beta, (g,)) for beta in orbit]
    for beta, xs in pending:
        u = orbit[beta][0]
        for x in xs:
            xu = compose(x, u)
            gamma = xu[b]
            rep = orbit.get(gamma)
            if rep is None:
                orbit[gamma] = (xu, inverse(xu))
                pending.append((gamma, gens))
                if math.prod(map(len, orbits)) > cap:
                    raise _cap_exceeded(cap)
            elif rep[0] != xu:
                _insert(chain, compose(rep[1], xu), i + 1, cap)


def groups_isomorphic(g: GeneratedGroup, h: GeneratedGroup):
    """Search for a group isomorphism g -> h.

    Returns a dict mapping each element of g to an element of h, or None
    if the groups are not isomorphic. Exact search over generator
    images, pruned by order and element-order multiset.
    """
    if g.order != h.order:
        return None
    if g.element_order_multiset() != h.element_order_multiset():
        return None

    gens = g.generators
    gen_orders = [perm_order(x) for x in gens]
    # candidate images in h, bucketed by element order
    by_order: dict[int, list[Perm]] = {}
    for e in h.elements:
        by_order.setdefault(perm_order(e), []).append(e)

    def build(images):
        # extend the generator images along g's order of discovery: each
        # element is reached from an earlier one by a generator, so it is
        # mapped before it is visited
        phi = {g.elements[0]: h.elements[0]}  # close_group lists the identity first
        for a in g.elements:
            for x, img in zip(gens, images):
                phi.setdefault(compose(a, x), compose(phi[a], img))
        if len(set(phi.values())) != len(phi):
            return None
        # well-defined on the first-reached paths and injective; confirm
        # it is a morphism
        for a in g.elements:
            for b in g.elements:
                if phi[compose(a, b)] != compose(phi[a], phi[b]):
                    return None
        return phi

    # every choice of generator images, in depth-first order (a loop,
    # not a recursive closure, which would be a reference cycle per call)
    for images in itertools.product(*(by_order.get(o, ()) for o in gen_orders)):
        phi = build(images)
        if phi is not None:
            return phi
    return None
