"""Standard (semi)definite plumbings bounding the three manifold classes.

A lens-space sum bounds the disjoint union of linear chains with weights
given by negated continued-fraction entries; that plumbing is negative
definite for every orientation.  A Seifert manifold over an orientable
base bounds the star-shaped plumbing with the central framing at the hub
and one leg per singular fibre (definite when e > 0, semi-definite of
corank one when e = 0).  Over a non-orientable base the central curve
drops out of second homology and the intersection form is the chain
forest of the legs alone.

Every plumbing here is a forest, kept sparse as the one form type below
the obstructions: its inertia comes from leaf stripping
(``PlumbingTree.inertia``), its cokernel from a walk along its chains
(``PlumbingTree.cokernel``), each once per tree, its Wu sets from a GF(2)
pass (``spin.wu_sets``); the lattice search reads its neighbour lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import intlinalg
from .manifolds import (
    LensSum,
    Manifold,
    PretzelCover,
    SeifertManifold,
    neg_continued_fraction,
    normalize_seifert,
    pretzel_to_seifert,
)


@dataclass(frozen=True)
class PlumbingTree:
    """Weighted forest with at most simple edges; a star has its hub at
    vertex 0."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex: Q's off-diagonal entries, all 1."""
        adj: list[list[int]] = [[] for _ in self.weights]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    @cached_property
    def inertia(self) -> tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts of the form, from
        one integer leaf-stripping pass over the edges, taken once per
        tree; the signature and the definiteness read it."""
        return intlinalg.signature_triple(self.weights, self.neighbours)

    @property
    def signature(self) -> int:
        """Signature of the plumbed 4-manifold."""
        neg, _, pos = self.inertia
        return pos - neg

    @property
    def definiteness(self) -> tuple[str, int]:
        """('negative_definite', 0), ('negative_semidefinite', corank) or
        ('indefinite', 0), read off the inertia; positive definite forms
        land in 'indefinite' since no construction here wants them."""
        _, zero, pos = self.inertia
        if pos:
            return "indefinite", 0
        return ("negative_semidefinite", zero) if zero else ("negative_definite", 0)

    @cached_property
    def cokernel(self) -> intlinalg.FiniteAbelianGroup:
        """coker Q, read off the chains (Neumann, Trans. AMS 268, 1981).

        Every vertex but a hub (degree >= 3) lies on a chain walked from its
        free end, of class g: each vertex's class is m g, with m = 1 at the end
        and m' = -w m - m_prev at the next, by the column of Q at a vertex of
        weight w.  Past the chain m' g = 0, or m' g = h at a hub h: the first
        chain to meet h gives h its class, each later one a relation, and h's
        own column w h + (its neighbours' classes) = 0.  These relations, one
        per chain, present the group, and a vertex's coordinates are its chain's
        times m.  Two hubs on a chain raise ValueError."""
        adj, weights = self.neighbours, self.weights
        owner, mult = [-1] * self.size, [1] * self.size  # each vertex's chain and m
        relations: list[dict[int, int]] = []  # columns: chain -> coefficient
        chains = 0
        for end, row in enumerate(adj):
            if len(row) > 1 or owner[end] >= 0:
                continue
            k, chains = chains, chains + 1
            prev, v, m_prev, m = -1, end, 0, 1
            while v >= 0 and len(adj[v]) < 3:
                owner[v], mult[v] = k, m
                m_prev, m = m, -weights[v] * m - m_prev
                ahead = [u for u in adj[v] if u != prev]  # at most one, as v is no hub
                prev, v = v, ahead[0] if ahead else -1
            if v >= 0 and owner[v] < 0:  # the first chain to meet hub v
                owner[v], mult[v] = k, m
            else:
                relations.append({k: m} if v < 0 else {k: m, owner[v]: -mult[v]})
        if -1 in owner:
            raise ValueError("a chain between two hubs has no free end to walk from")
        for h in (v for v, row in enumerate(adj) if len(row) >= 3):
            rel = {owner[h]: weights[h] * mult[h]}
            for u in adj[h]:
                rel[owner[u]] = rel.get(owner[u], 0) + mult[u]
            relations.append(rel)
        G = intlinalg.cokernel([[rel.get(k, 0) for rel in relations] for k in range(chains)])
        return replace(G, _lift=tuple(zip(owner, mult)))


def _chains(pairs, hub: int | None = None) -> PlumbingTree:
    """One linear chain per (p, q), weighted by the negated entries of
    the expansion of p/q.  With a ``hub`` weight the hub is vertex 0 and
    the first vertex of every chain is joined to it."""
    weights: list[int] = [] if hub is None else [hub]
    edges: list[tuple[int, int]] = []
    for p, q in pairs:
        seq = neg_continued_fraction(p, q)
        start = len(weights)
        weights.extend(-a for a in seq)
        if hub is not None:
            edges.append((0, start))
        edges.extend((i, i + 1) for i in range(start, len(weights) - 1))
    return PlumbingTree(tuple(weights), tuple(edges))


def lens_chains(m: LensSum) -> PlumbingTree:
    """Disjoint linear chains with weights -a_j, one chain per summand."""
    return _chains(m.summands)


def seifert_star(m: SeifertManifold) -> PlumbingTree:
    """Star plumbing of an orientable-base Seifert manifold.

    Built from the normalised description (a_i > -b_i > 0): hub weight
    is the normalised central framing, legs carry the negated entries of
    the expansion of a_i / -b_i, innermost vertex adjacent to the hub.
    The result is a valid surgery presentation for any e; it is negative
    (semi)definite exactly when e >= 0.
    """
    if not m.base_orientable:
        raise ValueError("star plumbing needs an orientable base")
    norm = normalize_seifert(m)
    return _chains([(a, -b) for a, b in norm.invariants], hub=norm.r)


def seifert_leg_forest(m: SeifertManifold) -> PlumbingTree:
    """Leg chains alone: the definite form bounding a non-orientable-base
    Seifert manifold (the central curve does not contribute)."""
    return _chains((a, -b) for a, b in normalize_seifert(m).invariants)


def plumbing_tree(m: Manifold, orientation: str = "+") -> PlumbingTree:
    """The standard definite/semi-definite plumbing for either orientation.

    orientation '-' builds the tree for the reversed manifold.  For an
    orientable-base Seifert manifold the chosen orientation must have
    e >= 0, otherwise no standard definite plumbing exists on that side.
    """
    if orientation not in ("+", "-"):
        raise ValueError("orientation must be '+' or '-'")
    if isinstance(m, PretzelCover):
        m = pretzel_to_seifert(m)
    if orientation == "-":
        m = m.mirror()
    if isinstance(m, LensSum):
        return lens_chains(m)
    if not m.base_orientable:
        return seifert_leg_forest(m)
    # the star is indefinite exactly when e < 0
    star = seifert_star(m)
    if star.definiteness[0] == "indefinite":
        raise ValueError("orientation yields e < 0 with orientable base")
    return star
