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

import math
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
        tails, owner, mult, relations = self._walk
        rows = [[rel.get(k, 0) for rel in relations] for k in range(len(tails))]
        return intlinalg.cokernel(rows, zip(owner, mult))

    @cached_property
    def _walk(self) -> tuple[list[tuple[int, int]], list[int], list[int], list[dict[int, int]]]:
        """The chain walk of ``cokernel``: (each chain's (q, a), the m of its
        last vertex and the m just past it; each vertex's chain; its m; the
        relations as {chain: coefficient})."""
        adj, weights = self.neighbours, self.weights
        owner, mult = [-1] * self.size, [1] * self.size  # each vertex's chain and m
        tails: list[tuple[int, int]] = []
        relations: list[dict[int, int]] = []  # columns: chain -> coefficient
        for end, row in enumerate(adj):
            if len(row) > 1 or owner[end] >= 0:
                continue
            k = len(tails)
            prev, v, m_prev, m = -1, end, 0, 1
            while v >= 0 and len(adj[v]) < 3:
                owner[v], mult[v] = k, m
                m_prev, m = m, -weights[v] * m - m_prev
                ahead = [u for u in adj[v] if u != prev]  # at most one, as v is no hub
                prev, v = v, ahead[0] if ahead else -1
            tails.append((m_prev, m))
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
        return tails, owner, mult, relations

    @cached_property
    def odd_linking_factor(self) -> int | None:
        """None where the 2-primary part of the linking form of coker Q is
        even; else, for the least k with 2^(k-1) lambda(x, x) != 0 for some x
        of order 2^k, the least invariant factor of coker Q of 2-part 2^k.

        The linking form is lambda(x, y) = x^t Q^-1 y mod 1 on coker Q.  On
        the x with 2^k x = 0 the map x -> 2^(k-1) lambda(x, x) is a
        homomorphism, as the cross term 2^k lambda(x, y) = lambda(2^k x, y)
        vanishes.  The multiples of the Smith generators that lie there span
        them, and the map vanishes on each but the odd multiples m f of a
        generator f of order d = 2^k m, where it is m t / 2 with the integer
        t = d lambda(f, f).  So the part is even iff t is even for every
        generator of even order: the 2-primary part of the condition for a
        hyperbolic linking form (Kawauchi-Kojima, *Algebraic classification
        of linking pairings on 3-manifolds*, Math. Ann. 253, 1980).  Which k
        fail does not depend on the basis, so neither does the factor named.
        An odd |coker Q| returns None at once.

        Disjoint chains are an orthogonal sum of lens-space forms q/p on Z/p,
        q prime to p, p the determinant of a chain, read off its relation: the
        form fails at k exactly where some p has 2-part 2^k.  On a star lambda
        is read in closed form on the chain generators g_k of ``cokernel``, the
        classes of the chain ends, with no solve.  Chain k has determinant
        a_k, the walk's m just past it, and class q_k g_k at its last vertex.
        With hub weight w and e = -w - sum over the legs of q_k / a_k,

            lambda(g_k, g_l) = -[k, l legs] / (e a_k a_l) - [k = l] q_k^-1 / a_k,

        q_k^-1 taken mod a_k; a chain off the hub has no e term.  So for a
        Smith generator f = sum c_k g_k (``FiniteAbelianGroup.generators``),
        lambda(f, f) = -(sum over legs of c_k / a_k)^2 / e
        - sum c_k^2 q_k^-1 / a_k.  A zero a_k, or a second hub, raises
        ValueError."""
        G = self.cokernel
        if G.order % 2:
            return None
        tails, owner, _, relations = self._walk
        hubs = [v for v, row in enumerate(self.neighbours) if len(row) >= 3]
        if not hubs:
            odd = [p for rel in relations for p in rel.values() if p % 2 == 0]
        else:
            if len(hubs) > 1:
                raise ValueError("the linking form is read on at most one hub")
            if not all(a for _, a in tails):
                raise ValueError("the linking form needs nonzero subtree determinants")
            legs = {owner[u] for u in self.neighbours[hubs[0]]}
            # t over the integer denominator P E A: P and A multiply the a_k of
            # the legs and of every chain, and E = e P
            P = math.prod(tails[k][1] for k in legs)
            A = math.prod(a for _, a in tails)
            E = -self.weights[hubs[0]] * P - sum(tails[k][0] * (P // tails[k][1]) for k in legs)
            inverses = [pow(q, -1, a) for q, a in tails]
            odd = []
            for d, f in zip(G.factors, G.generators):
                if d % 2:
                    continue
                at_hub = sum(f[k] * (P // tails[k][1]) for k in legs)  # P sum c_k / a_k
                own = sum(c * c * b * (A // a) for c, b, (_, a) in zip(f, inverses, tails))
                t, rest = divmod(-d * (at_hub * at_hub * A + own * P * E), P * E * A)
                assert rest == 0, "d f is not zero in coker Q"
                if t % 2:
                    odd.append(d)
        if not odd:
            return None
        two = min(p & -p for p in odd)  # the least 2-part
        return next(d for d in G.factors if d & -d == two)


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
