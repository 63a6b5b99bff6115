"""Permutations of {0,...,m-1} and generated-subgroup machinery.

A permutation is a plain tuple of images: ``p[i]`` is the image of ``i``.
The composition convention throughout the package is
``compose(p, q)(i) = p(q(i))`` (q acts first).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeCapExceeded

Perm = tuple[int, ...]

#: Default cap on closure size and isomorphism-search input size.
DEFAULT_CAP = 10**6


def is_perm(images) -> bool:
    return sorted(images) == list(range(len(images)))


def perm(images) -> Perm:
    """Validate and freeze an image sequence into a Perm."""
    p = tuple(images)
    if not p:
        raise ValueError("empty image list (degree 0 is not allowed)")
    if not is_perm(p):
        raise ValueError(f"not a bijection of {{0,...,{len(p) - 1}}}: {list(p)}")
    return p


def identity(m: int) -> Perm:
    if m < 1:
        raise ValueError("degree must be at least 1")
    return tuple(range(m))


def compose(p: Perm, q: Perm) -> Perm:
    """(p∘q)(i) = p(q(i)); q is applied first."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    """Multiplicative order of p in Sym_m."""
    q = p
    k = 1
    ident = identity(len(p))
    while q != ident:
        q = compose(q, p)
        k += 1
    return k


def all_perms(m: int):
    """All m! permutations of degree m, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(m))]


@dataclass(frozen=True)
class GeneratedGroup:
    """The subgroup of Sym_m generated by a list of permutations.

    ``elements`` is the full closure in a deterministic breadth-first
    order starting from the identity, applying generators in input order.
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order_multiset(self) -> tuple[int, ...]:
        """Sorted tuple of element orders; an isomorphism invariant."""
        return tuple(sorted(perm_order(e) for e in self.elements))


def close_group(generators, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    """Close a nonempty generator list under composition.

    The elements are kept in one insertion-ordered dict, so their order
    is the breadth-first order of discovery. Finite order makes
    inverse-closure automatic. Raises SizeCapExceeded if the closure
    grows past ``cap``.
    """
    gens = [perm(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    m = len(gens[0])
    for g in gens:
        if len(g) != m:
            raise ValueError(f"degree mismatch among generators: {m} vs {len(g)}")

    elements = {identity(m): None}
    frontier = list(elements)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = compose(e, g)
                if c not in elements:
                    elements[c] = None
                    nxt.append(c)
                    if len(elements) > cap:
                        raise SizeCapExceeded(
                            f"group closure exceeded cap of {cap} elements"
                        )
        frontier = nxt
    return GeneratedGroup(degree=m, generators=tuple(gens), elements=tuple(elements))


def groups_isomorphic(g: GeneratedGroup, h: GeneratedGroup, cap: int = DEFAULT_CAP):
    """Search for a group isomorphism g -> h.

    Returns a dict mapping each element of g to an element of h, or None
    if the groups are not isomorphic. Exact search over generator
    images, pruned by order and element-order multiset.
    """
    if g.order > cap or h.order > cap:
        raise SizeCapExceeded(f"isomorphism search declined above cap {cap}")
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
    ident_h = identity(h.degree)

    def build(images):
        # extend the generator images along g's breadth-first order, in
        # which each element is mapped before anything is reached from it
        phi = {g.elements[0]: ident_h}
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
