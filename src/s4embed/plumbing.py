"""Standard (semi)definite plumbings bounding the three manifold classes.

A lens-space sum bounds the disjoint union of linear chains with weights
given by negated continued-fraction entries; that plumbing is negative
definite for every orientation.  A Seifert manifold over an orientable
base bounds the star-shaped plumbing with the central framing at the hub
and one leg per singular fibre (definite when e > 0, semi-definite of
corank one when e = 0).  Over a non-orientable base the central curve
drops out of second homology and the intersection form is the chain
forest of the legs alone.

Every plumbing here is a forest, and it is kept sparse: its signature,
definiteness and determinant come from one integer leaf-stripping pass
over its edges (``PlumbingTree.inertia``), taken once per tree, and the
Wu sets from a GF(2) pass over the same edges (``spin.wu_sets``).  The
tree is the one form type below the obstructions: the lattice search
takes it too, reads the definiteness off its cached inertia, and only a
check that searches builds the dense matrix, once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def incidence_matrix(self) -> list[list[int]]:
        """The dense n x n form, built on the first call and shared by
        every later one.  Only the checks that search read it, for the
        lattice search and the cokernel it pairs in; the signature,
        definiteness, determinant and Wu sets are read from the edges."""
        return self._dense

    @cached_property
    def _dense(self) -> list[list[int]]:
        return _densify(self.weights, self.edges)

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def inertia(self) -> tuple[int, int, int, int]:
        """(negative, zero, positive, determinant) of the form, from one
        integer leaf-stripping pass over the edges, taken once per tree;
        the signature, the definiteness and the determinant read it."""
        return intlinalg.signature_triple(self.weights, self.edges)

    @property
    def signature(self) -> int:
        """Signature of the plumbed 4-manifold."""
        neg, _, pos, _ = self.inertia
        return pos - neg

    @property
    def definiteness(self) -> tuple[str, int]:
        """('negative_definite', 0), ('negative_semidefinite', corank) or
        ('indefinite', 0), read off the inertia; positive definite forms
        land in 'indefinite' since no construction here wants them."""
        _, zero, pos, _ = self.inertia
        if pos:
            return "indefinite", 0
        return ("negative_semidefinite", zero) if zero else ("negative_definite", 0)

    @property
    def determinant(self) -> int:
        """det Q, so |det Q| = |coker Q| when it is nonzero."""
        return self.inertia[3]


def _densify(weights, edges) -> list[list[int]]:
    n = len(weights)
    Q = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        Q[i][i] = w
    for i, j in edges:
        Q[i][j] = Q[j][i] = 1
    return Q


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
