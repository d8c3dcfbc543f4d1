"""Spin structures on plumbed manifolds, the Neumann-Siebenmann mu-bar
invariant, and the 10/8-type counting obstruction.

Spin structures on the boundary of a plumbing correspond to Wu sets:
0/1 vertex vectors w with Q w = diag(Q) mod 2.  For such a set,
mu_bar = sigma(X) - w.w, with w.w the square of the integral lift under
the intersection form.  Both ingredients are computed exactly, and
sigma(X) only once per plumbing (``PlumbingTree.signature``), however
many Wu sets read it.

For a pretzel-link double branched cover the number of spin structures
is 2^(k-1), k the number of link components; the count doubles as a
cross-check on the component count computed from strand parities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import mod2_solution_set
from .manifolds import (
    PretzelCover,
    SeifertManifold,
    euler_invariant,
    pretzel_to_seifert,
)
from .plumbing import PlumbingTree, plumbing_tree


def wu_sets(tree: PlumbingTree) -> list[tuple[int, ...]]:
    """All 0/1 vertex vectors characteristic for the incidence matrix."""
    Q = tree.incidence_matrix()
    diag = [Q[i][i] for i in range(len(Q))]
    sols = mod2_solution_set(Q, diag)
    if not sols:
        # cannot happen for a symmetric form with its own diagonal on the
        # right-hand side; report loudly if it ever does
        raise ArithmeticError("no Wu set: characteristic system inconsistent")
    return sols


def mu_bar(tree: PlumbingTree, w) -> int:
    """sigma(X) - w.w for a Wu set w on the plumbing X.

    sigma(X) is the tree's cached signature, so the 2^(k-1) Wu sets of
    one plumbing share a single signature computation.
    """
    if len(w) != tree.size or any(x not in (0, 1) for x in w):
        raise ValueError("Wu set must be a 0/1 vertex vector")
    ww = sum(c for c, x in zip(tree.weights, w) if x)
    ww += 2 * sum(w[i] * w[j] for i, j in tree.edges)
    return tree.signature - ww


def pretzel_link_components(strands) -> int:
    """Component count of the pretzel link, from strand parities.

    The two strands through each twist region swap ends iff the twist
    count is odd; tracing the resulting identifications around the
    diagram counts closed loops.
    """
    n = len(strands)
    # endpoints per region: (i, 'TL'|'TR'|'BL'|'BR'); arcs join TR_i-TL_{i+1}
    # and BR_i-BL_{i+1}; inside region i: odd twists TL-BR, TR-BL, even
    # twists TL-BL, TR-BR.
    joins: dict[tuple[int, str], tuple[int, str]] = {}

    def join(a, b):
        joins.setdefault(a, b)
        joins.setdefault(b, a)

    pair: dict[tuple[int, str], tuple[int, str]] = {}
    for i, a in enumerate(strands):
        if a % 2:
            pair[(i, "TL")] = (i, "BR")
            pair[(i, "BR")] = (i, "TL")
            pair[(i, "TR")] = (i, "BL")
            pair[(i, "BL")] = (i, "TR")
        else:
            pair[(i, "TL")] = (i, "BL")
            pair[(i, "BL")] = (i, "TL")
            pair[(i, "TR")] = (i, "BR")
            pair[(i, "BR")] = (i, "TR")
    for i in range(n):
        j = (i + 1) % n
        join((i, "TR"), (j, "TL"))
        join((i, "BR"), (j, "BL"))

    seen: set[tuple[int, str]] = set()
    count = 0
    for start in pair:
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            via_region = pair[cur]
            seen.add(via_region)
            cur = joins[via_region]
    return count


@dataclass(frozen=True)
class SpinProfile:
    """Wu sets and mu-bar values on the definite-side plumbing."""

    tree: PlumbingTree
    wu: tuple[tuple[int, ...], ...]
    mu_values: tuple[int, ...]  # sorted multiset
    spin_count: int
    link_components: int | None = None

    @property
    def vanishing(self) -> int:
        return sum(1 for v in self.mu_values if v == 0)


def spin_profile(m: PretzelCover | SeifertManifold) -> SpinProfile:
    """Wu sets and mu-bar values of the manifold.

    Computed on the standard plumbing of whichever orientation is
    negative (semi)definite; reversing orientation negates mu-bar and
    fixes the vanishing count.  Pretzel covers also carry the link
    component count k, checked against spin count = 2^(k-1).
    """
    k = None
    if isinstance(m, PretzelCover):
        k = pretzel_link_components(m.strands)
        seif = pretzel_to_seifert(m)
    else:
        seif = m
    if not seif.base_orientable:
        raise ValueError("mu-bar via Wu sets needs an orientable base plumbing")
    flip = euler_invariant(seif) < 0
    tree = plumbing_tree(seif, "-" if flip else "+")
    wu = tuple(wu_sets(tree))
    values = sorted(mu_bar(tree, w) * (-1 if flip else 1) for w in wu)
    profile = SpinProfile(tree, wu, tuple(values), len(wu), k)
    if k is not None and profile.spin_count != 2 ** (k - 1):
        raise ArithmeticError(
            f"spin count {profile.spin_count} disagrees with 2^(k-1) for k={k}"
        )
    return profile


MU_BAR_THRESHOLD = {1: 1, 2: 2, 3: 3, 4: 5}


def mubar_vanishing_threshold(k: int) -> int:
    """Least number of vanishing mu-bar invariants an embedded cover
    admits: 2^((k+1)/2) - 1 for odd k, 3 * 2^((k-2)/2) - 1 for even k."""
    return MU_BAR_THRESHOLD[k]
