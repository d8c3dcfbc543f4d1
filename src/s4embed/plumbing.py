"""Standard (semi)definite plumbings bounding lens-space sums and Seifert
manifolds.

A lens-space sum bounds the disjoint union of linear chains with weights
given by negated continued-fraction entries; that plumbing is negative
definite for every orientation.  A Seifert manifold over an orientable
base bounds the star-shaped plumbing with the central framing at the hub
and one leg per singular fibre (definite when e > 0, semi-definite of
corank one when e = 0).  Over a non-orientable base the central curve
drops out of second homology and the intersection form is the chain
forest of the legs alone.  Every plumbing here is a forest, kept sparse.

Every plumbing is laid out in one canonical vertex order.  A star's hub
is vertex 0 and each leg is read from the hub outward; with no hub, each
chain is read from the end whose continued-fraction sequence is the
lexicographically smaller.  Chains, and a star's legs, follow one
another in ascending order of those sequences.  So plumbings that differ
only by reversed chains or permuted chains or legs are equal
``PlumbingTree``s, and a report searches them once
(``classify._searched``).  The search breaks its ties by vertex index,
so this order also fixes where it starts: at the first vertex of the
largest weight.  ``chain_layout`` gives this order to every plumbing and
to the rows that ``obstructions.built_pass`` builds with no plumbing, so
row i of a certificate, searched or built, is vertex i of the side's
tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg
from .intlinalg import lazy
from .manifolds import LensSum, SeifertManifold, chain_length, chains, neg_continued_fraction


@dataclass(frozen=True)
class PlumbingTree:
    """Weighted forest with at most simple edges, in the canonical order.
    ``lift`` names vertex i's class m g_k, (k, m) = lift[i], on the chain
    ends of ``manifolds.chain_group``, () the identity; it takes no part
    in equality, so equal trees of one report share one search."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    lift: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.weights)

    @lazy
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex: Q's off-diagonal entries, all 1."""
        adj: list[list[int]] = [[] for _ in self.weights]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    @lazy
    def inertia(self) -> tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts of the form, taken
        once per tree (``intlinalg.signature_triple``)."""
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


def chain_layout(ends, hub: bool = False) -> list[tuple[tuple[int, ...], int]]:
    """(seq, k) for each chain end (q, a), k its index and seq the
    expansion of a / (q mod a), in the canonical order, ties in order of
    k."""
    seqs = [neg_continued_fraction(a, q % a) for q, a in ends]
    if not hub:
        seqs = [min(seq, seq[::-1]) for seq in seqs]
    return sorted((seq, k) for k, seq in enumerate(seqs))


def layout_size(ends, hub: bool = False) -> int:
    """The number of vertices, and so of rows, that ``_chains`` lays out
    for the chain ends (q, a), plus one for a hub, with no expansion
    built (``chain_length``): the count the size rule of
    ``classify._searched`` and ``obstructions.built_pass`` reads."""
    return hub + sum(chain_length(a, q % a) for q, a in ends)


def _chains(hub: int | None, ends) -> PlumbingTree:
    """One linear chain per chain end (q, a), weighted by the negated
    expansion of a / (q mod a), laid out by ``chain_layout``.  With a
    ``hub`` weight w (vertex 0) reducing q by t a adds t to w.

    The lift names chain k's last vertex g_k and each one inward m' g_k,
    m' = c m - m_prev past weight -c, so Q's columns there vanish; past
    the first vertex m = a, the hub's class a_0 g_0 (g_0 with no legs) or
    0: the relations of ``chain_group``, up to t (a_k g_k - a_0 g_0) for a
    reduced q.  A hub-less chain's Z/a is spanned from either end."""
    if hub is not None:
        hub += sum(q // a for q, a in ends)
    weights: list[int] = [] if hub is None else [hub]
    lift = [] if hub is None else [(0, ends[0][1] if ends else 1)]
    edges: list[tuple[int, int]] = []
    for seq, k in chain_layout(ends, hub is not None):
        start = len(weights)
        weights.extend(-c for c in seq)
        if hub is not None:
            edges.append((0, start))
        edges.extend((i, i + 1) for i in range(start, len(weights) - 1))
        mults, m, m_prev = [], 1, 0
        for c in reversed(seq):
            mults.append((k, m))
            m, m_prev = c * m - m_prev, m
        lift.extend(reversed(mults))
    return PlumbingTree(tuple(weights), tuple(edges), tuple(lift))


def plumbing_tree(m: LensSum | SeifertManifold, orientation: str = "+") -> PlumbingTree:
    """The standard definite/semi-definite plumbing for either orientation.

    Its chains are ``manifolds.chains``, and over an orientable base the
    hub weighs r, each leg's innermost vertex joined to it.  The star
    presents Y for any e and is negative (semi)definite exactly when
    e >= 0, so for an orientable-base Seifert manifold the chosen
    orientation must have e >= 0.

    orientation '-' builds the tree for the reversed manifold by negating
    every q and w.  That negates only the hub relation of ``chain_group``,
    so both sides' lifts name the g_k of m's own chain ends.  The sides
    of a chain forest are equal trees where a sum and its mirror have
    chains that match up, reversed (L(p, q) = L(p, q^-1)) or permuted;
    each call builds its own, and ``classify._searched`` is where equal
    sides share one search.
    """
    if orientation not in ("+", "-"):
        raise ValueError("orientation must be '+' or '-'")
    s = 1 if orientation == "+" else -1
    star = isinstance(m, SeifertManifold) and m.base_orientable
    tree = _chains(s * m.r if star else None, [(s * q, a) for q, a in chains(m)])
    # the star is indefinite exactly when e < 0; a chain forest is definite
    if star and tree.definiteness[0] == "indefinite":
        raise ValueError("orientation yields e < 0 with orientable base")
    return tree
