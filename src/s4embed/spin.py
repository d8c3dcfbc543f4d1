"""Spin structures on plumbed manifolds, the Neumann-Siebenmann mu-bar
invariant, and the 10/8-type counting obstruction.

Spin structures on the boundary of a plumbing correspond to Wu sets:
0/1 vertex vectors w with Q w = diag(Q) mod 2.  For such a set,
mu_bar = sigma(X) - w.w, with w.w the square of the integral lift under
the intersection form.  This module builds no plumbing: the caller
passes in the tree of the orientation whose plumbing is negative
(semi)definite.
"""

from __future__ import annotations

from .intlinalg import strip_forest
from .plumbing import PlumbingTree


def wu_sets(tree: PlumbingTree) -> list[tuple[int, ...]]:
    """All 0/1 vertex vectors w with Q w = diag(Q) mod 2, sorted.

    GF(2) leaf stripping by ``intlinalg.strip_forest``, with d, the
    current diagonal mod 2, as the walk's pivot list.  The right-hand
    side starts equal to d, and every step below changes both alike, so
    it stays equal to d and is not kept; for the same reason the system
    is always consistent.

    - A leaf v with neighbour u and d_v = 1 gives w_v = 1 + w_u, and
      moving its row into u's flips d_u.
    - A leaf with d_v = 0 fixes its neighbour, w_u = 0, and u's row then
      gives w_v = d_u + the sum of w over u's other neighbours; v and u
      leave together.
    - An isolated vertex gives w_v = 1 when d_v = 1, and is a free
      variable when d_v = 0, so the free variables come from the zero
      pivots.

    Each w_v is a bit mask over a constant bit and the free variables,
    read off in reverse order of elimination, and every assignment of
    the free variables is one Wu set.  The work is linear in the number
    of vertices per Wu set.
    """
    n = tree.size
    d = [w & 1 for w in tree.weights]
    # (v, mask, vertices): w_v is mask plus the w of those vertices, each
    # eliminated after v; bit 0 of a mask is the constant 1, bit t >= 1
    # the t-th free variable
    steps: list[tuple[int, int, tuple[int, ...]]] = []
    free = 0
    for v, u, rest in strip_forest(tree.neighbours, d):
        if u is None:
            if not d[v]:
                free += 1
            steps.append((v, 1 if d[v] else 1 << free, ()))
        elif rest is None:
            steps.append((v, 1, (u,)))
            d[u] ^= 1
        else:
            steps.append((u, 0, ()))
            steps.append((v, d[u], tuple(rest)))
    masks = [0] * n
    for v, mask, later in reversed(steps):
        for r in later:
            mask ^= masks[r]
        masks[v] = mask
    return sorted(
        tuple((m & x).bit_count() & 1 for m in masks) for x in range(1, 2 << free, 2)
    )


def mu_bar(tree: PlumbingTree, w) -> int:
    """sigma(X) - w.w for a Wu set w on the plumbing X; sigma(X) is the
    tree's cached signature."""
    if len(w) != tree.size or any(x not in (0, 1) for x in w):
        raise ValueError("Wu set must be a 0/1 vertex vector")
    ww = sum(c for c, x in zip(tree.weights, w) if x)
    ww += 2 * sum(w[i] * w[j] for i, j in tree.edges)
    return tree.signature - ww


def spin_profile(tree: PlumbingTree, side: str, k: int) -> tuple[int, ...]:
    """The sorted mu-bar values of a pretzel cover with k link components,
    one per spin structure.

    ``tree`` is the standard plumbing of orientation ``side`` ('+' or
    '-'), the one the caller found negative (semi)definite.  The values
    are reported for the '+' orientation: reversing orientation negates
    mu-bar and fixes the vanishing count.  The Wu-set count must be the
    spin count 2^(k-1) = |H_1(Y; Z/2)| that the caller read off H_1
    (``ManifoldContext.link_components``), a cross-check of the plumbing.
    """
    sign = -1 if side == "-" else 1
    wu = wu_sets(tree)
    if len(wu) != 2 ** (k - 1):
        raise ArithmeticError(f"{len(wu)} Wu sets disagree with 2^(k-1) = |H_1(Y; Z/2)| for k={k}")
    return tuple(sorted(sign * mu_bar(tree, w) for w in wu))


def mubar_vanishing_threshold(k: int) -> int:
    """Least number of vanishing mu-bar invariants an embedded cover
    admits: 2^((k+1)/2) - 1 for odd k, 3 * 2^((k-2)/2) - 1 for even k."""
    return 2 ** ((k + 1) // 2) - 1 if k % 2 else 3 * 2 ** ((k - 2) // 2) - 1
