"""Standard (semi)definite plumbings bounding lens-space sums and Seifert
manifolds.  A pretzel cover is plumbed as its Seifert space
(``pretzel_to_seifert``), which is what the report's context passes in.

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

Every plumbing is laid out in one canonical vertex order.  A star's hub
is vertex 0 and each leg is read from the hub outward; with no hub, each
chain is read from the end whose continued-fraction sequence is the
lexicographically smaller.  Chains, and a star's legs, follow one
another in ascending order of those sequences.  So plumbings that differ
only by reversed chains or permuted chains or legs are one
``PlumbingTree``, and they share one elimination and one search.  The
search breaks its ties by vertex index, so this order also fixes where
it starts: at the first vertex of the largest weight.  Row i of a
subset certificate is vertex i of the plumbing its search ran on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import intlinalg
from .manifolds import LensSum, SeifertManifold, neg_continued_fraction, normalize_seifert


@dataclass(frozen=True)
class PlumbingTree:
    """Weighted forest with at most simple edges.  ``plumbing_tree`` lays
    it out in the canonical order of the module docstring, a star with
    its hub at vertex 0, so isomorphic plumbings come out as equal trees;
    row i of a subset certificate found on the tree is its vertex i."""

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
        chains = 0
        relations: list[dict[int, int]] = []  # columns: chain -> coefficient
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
        rows = [[rel.get(k, 0) for rel in relations] for k in range(chains)]
        return intlinalg.cokernel(rows, zip(owner, mult))


def _chains(pairs, hub: int | None = None) -> PlumbingTree:
    """One linear chain per (p, q), weighted by the negated entries of
    the expansion of p/q, in the canonical order of the module docstring.
    With a ``hub`` weight the hub is vertex 0, the first vertex of every
    chain is joined to it, and each chain is read from the hub outward;
    with none, each chain is read from the end whose sequence is the
    lexicographically smaller."""
    seqs = [neg_continued_fraction(p, q) for p, q in pairs]
    if hub is None:
        seqs = [min(seq, seq[::-1]) for seq in seqs]
    weights: list[int] = [] if hub is None else [hub]
    edges: list[tuple[int, int]] = []
    for seq in sorted(seqs):
        start = len(weights)
        weights.extend(-a for a in seq)
        if hub is not None:
            edges.append((0, start))
        edges.extend((i, i + 1) for i in range(start, len(weights) - 1))
    return PlumbingTree(tuple(weights), tuple(edges))


def plumbing_tree(m: LensSum | SeifertManifold, orientation: str = "+", shared=()) -> PlumbingTree:
    """The standard definite/semi-definite plumbing for either orientation.

    A lens sum gives one chain per summand.  L(p, q) = L(p, q^-1) has the
    reversed chain, so in the canonical layout the tree depends only on
    the multiset of summands up to that identity, and a sum and its
    mirror get one tree whenever their chains match up so.  A Seifert
    space is read in its normalised form (a_i > -b_i > 0): each leg
    carries the negated entries of the expansion of a_i / -b_i, and over
    an orientable base the hub weighs the normalised framing r, each leg's
    innermost vertex joined to it.  That star presents Y for any e and is
    negative (semi)definite exactly when e >= 0.

    orientation '-' builds the tree for the reversed manifold.  For an
    orientable-base Seifert manifold the chosen orientation must have
    e >= 0, otherwise no standard definite plumbing exists on that side.
    A tree of ``shared`` equal to the one built is returned in its place,
    before the definiteness check, so its inertia is not taken twice.
    """
    if orientation not in ("+", "-"):
        raise ValueError("orientation must be '+' or '-'")
    if orientation == "-":
        m = m.mirror()
    if isinstance(m, LensSum):
        star, tree = False, _chains(m.summands)
    else:
        star, norm = m.base_orientable, normalize_seifert(m)
        tree = _chains([(a, -b) for a, b in norm.invariants], norm.r if star else None)
    tree = next((t for t in shared if t == tree), tree)
    # the star is indefinite exactly when e < 0; a chain forest is definite
    if star and tree.definiteness[0] == "indefinite":
        raise ValueError("orientation yields e < 0 with orientable base")
    return tree
