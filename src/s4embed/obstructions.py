"""Embedding obstructions from definite intersection forms.

An embedded rational-homology splitting of the 4-sphere forces, for the
standard negative definite form Q of the manifold, a pair of integer
factorisations A_i A_i^t = -Q whose column subgroups H_i = im A_i / im Q
split the cokernel as H_1 + H_2 with H_1 isomorphic to H_2; over a
non-orientable base the conclusion weakens to coker Q isomorphic to
H_i + H_i with |H_1 meet H_2| <= 2.  When e = 0 the semi-definite form
must factor through one fewer column.  For Z/2-homology spheres, a
correction-term argument filters the usable factorisations: every class
of im A / im Q must be hit by A x with x in {-1, +1}^n.

Each check takes the ``PlumbingTree`` of the form and first states the
definiteness it needs, read off the tree's cached inertia: negative
definite for the double-subset checks, semi-definite of corank one for
the rectangular one.  The double-subset checks also take coker Q, the
report's own group, on the generators ``PlumbingTree.lift`` names.
Both need coker Q = H + H, so a non-square |coker Q|, or invariant
factors that do not come in equal pairs, refutes them (``undoubled``).
The orientable check also needs the 2-primary linking form of coker Q to
be even (``odd_linking_factor``), and a report refutes it on either
ground with no tree, on H_1.  Otherwise a search pairs its column subgroups,
whatever their type: each is a Lagrangian of the linking form, and two
Lagrangians whose sum is direct are isomorphic.  No check builds a
dense form.  Each check filters and pairs the factorisations inside the
search, as the search finds them (``enumerate_subsets(..., until=...)``),
and stops at its first witness.  A pass therefore cites the first
witness the search meets, in search order.  Every verdict of
"obstructed" is backed by a provably completed search, by the invariant
factors of coker Q or by its linking form; budget exhaustion downgrades
to "inconclusive" instead, whose note gives the nodes the search used
and the subsets it found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import add, mod
from typing import Any

from .intlinalg import (
    FiniteAbelianGroup,
    Subgroup,
    direct_sum_test,
    doubled_factors,
    subgroup_from_generators,
)
from .lattice import LatticeSubset, SubsetSearchResult, enumerate_subsets
from .plumbing import PlumbingTree


@dataclass
class ObstructionResult:
    """Outcome of one check: pass / obstructed / inconclusive plus the
    data that certifies it."""

    name: str
    verdict: str
    certificates: list = field(default_factory=list)
    notes: str = ""

    @property
    def obstructed(self) -> bool:
        return self.verdict == "obstructed"

    def to_json(self, with_certificates=False) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "verdict": self.verdict}
        if self.notes:
            out["notes"] = self.notes
        if with_certificates and self.certificates:
            out["certificate"] = [certificate_json(c) for c in self.certificates]
        return out


def certificate_json(cert):
    if isinstance(cert, LatticeSubset):
        return {"subset_rows": [list(r) for r in cert.rows]}
    if isinstance(cert, Subgroup):
        return {"subgroup_factors": list(cert.factors), "order": cert.order}
    if isinstance(cert, tuple):
        return [certificate_json(c) for c in cert]
    if isinstance(cert, dict):
        return cert
    return str(cert)


def subset_column_subgroup(G: FiniteAbelianGroup, subset: LatticeSubset) -> Subgroup:
    """H = im A / im Q inside coker Q, generated by the columns of A."""
    return subgroup_from_generators(G, G.project_columns(subset.rows))


def char_vector_criterion(H: Subgroup) -> bool:
    """Correction-term filter for Z/2-homology spheres.

    H is the column subgroup im A / im Q of a factorisation A, built by
    ``subset_column_subgroup``: its parent is coker Q and its generators
    g_1, ..., g_n are the column classes of A.  True iff every coset of
    im Q inside im A is A x for some x with all coordinates +-1.  Such x
    are exactly the characteristic vectors of the ambient diagonal
    lattice, so the reachable cosets are the signed sums of the g_i,
    which all lie in H; the test is whether there are |H| of them.  A
    signed sum is s_0 - 2 s with s_0 the sum of all g_i and s a subset
    sum, and 2 is invertible in a group of odd order, so there are as
    many signed sums as subset sums.  The subset sums R are collected
    column by column, each g adding R + g to R, until R is all of H.
    """
    G = H.parent
    if G.order % 2 == 0:
        raise ValueError("criterion needs an odd-order cokernel")
    factors = G.factors
    reachable = {(0,) * len(factors)}
    for g in H.generators:
        if len(reachable) == H.order:
            break
        reachable |= {tuple(map(mod, map(add, r, g), factors)) for r in reachable}
    return len(reachable) == H.order


def _require(tree: PlumbingTree, definiteness: tuple[str, int], check: str) -> None:
    """Raise ValueError unless the tree's form has this definiteness."""
    if tree.definiteness != definiteness:
        kind, corank = definiteness
        raise ValueError(f"{check} needs a {kind.replace('_', ' ')} form of corank {corank}")


def pairs_up(factors) -> bool:
    """Do the invariant factors come in equal pairs, d1 = d2, d3 = d4, ...,
    as those of a group H + H do?  The trivial group's () does."""
    return doubled_factors(factors[1::2]) == tuple(factors)


# each check's note after a non-square |coker Q| and after unpaired factors
_UNDOUBLED = {
    "double_subset": (", so no factorisation exists", "no splitting pair exists"),
    "nonorientable_double_subset": ("", "no subset qualifies"),
}


def undoubled(name: str, G: FiniteAbelianGroup) -> ObstructionResult | None:
    """The refutation of check ``name`` where G, its coker Q, is not H + H
    by a non-square order or invariant factors that do not pair up; None
    where G may be H + H.  It reads only G's factors, so a report can pass
    any group isomorphic to coker Q, and no plumbing need exist."""
    square, unpaired = _UNDOUBLED[name]
    if math.isqrt(G.order) ** 2 != G.order:
        notes = f"|coker Q| = {G.order} is not a perfect square{square}"
    elif not pairs_up(G.factors):
        group = " + ".join(f"Z/{d}" for d in G.factors)
        notes = f"coker Q = {group} is not of the form H + H, so {unpaired}"
    else:
        return None
    return ObstructionResult(name, "obstructed", notes=notes)


def odd_linking_factor(G: FiniteAbelianGroup, hub: int | None, ends) -> int | None:
    """None where the 2-primary part of the linking form of G is even;
    else, for the least k with 2^(k-1) lambda(x, x) != 0 for some x of
    order 2^k, the least invariant factor of G of 2-part 2^k.  G is H_1
    (``first_homology``) of a lens sum, or of an orientable-base space with
    e != 0, on the chain ends (q_k, a_k) of its '+' plumbing (``chain_ends``).

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
    fail depends on no basis, and reversing orientation negates lambda,
    so neither the factor named nor the side read matters.

    With no hub lambda is a sum of lens-space forms q/p on Z/p, q prime
    to p, and fails at k where some p has 2-part 2^k.  With a hub of
    weight w and e = -w - sum of q_k / a_k, it is in closed form on the g_k:

        lambda(g_k, g_l) = -1 / (e a_k a_l) - [k = l] q_k^-1 / a_k,

    q_k^-1 taken mod a_k.  So for a Smith generator f = sum c_k g_k
    (``FiniteAbelianGroup.generators``), lambda(f, f) is
    -(sum of c_k / a_k)^2 / e - sum of c_k^2 q_k^-1 / a_k."""
    if G.order % 2:
        return None
    if hub is None:
        odd = [a for _, a in ends if a % 2 == 0]
    else:
        # t over the integer denominator P E, with P the product of the a_k and E = e P
        P = math.prod(a for _, a in ends)
        E = -hub * P - sum(q * (P // a) for q, a in ends)
        inverses = [pow(q, -1, a) for q, a in ends]
        odd = []
        for d, f in zip(G.factors, G.generators):
            if d % 2:
                continue
            at_hub = sum(c * (P // a) for c, (_, a) in zip(f, ends))  # P sum c_k / a_k
            own = sum(c * c * b * (P // a) for c, b, (_, a) in zip(f, inverses, ends))
            t, rest = divmod(-d * (at_hub * at_hub + own * E), P * E)
            assert rest == 0, "d f is not zero in G"
            if t % 2:
                odd.append(d)
    if not odd:
        return None
    two = min(p & -p for p in odd)  # the least 2-part
    return next(d for d in G.factors if d & -d == two)


def _exhausted(res: SubsetSearchResult) -> str:
    return f"budget exhausted after {res.nodes} nodes; {len(res.subsets)} subset(s) found"


def double_subset_obstruction(
    tree: PlumbingTree, group: FiniteAbelianGroup, budget: int | None = None
) -> ObstructionResult:
    """Search for two factorisations splitting coker Q as H + H, Q the
    form of ``tree`` and ``group`` its coker Q, presented on the
    generators ``tree.lift`` writes vertices in (``cokernel`` of the dense
    form, on a bare tree).

    The pair must have distinct column subgroups unless the cokernel is
    trivial, in which case a single factorisation suffices.  For odd
    cokernel order, factorisations failing the correction-term filter
    cannot arise from a rational-ball side and are discarded.

    A splitting pair G = H1 + H2 with H1 isomorphic to H2 makes G
    isomorphic to H1 + H1, so G's invariant factors are H1's, each
    doubled.  A non-square |G|, or invariant factors of G that do not
    pair up, therefore refutes the check with no search.

    Each column subgroup H = im A / im Q is a Lagrangian of the linking
    form lambda(x, y) = x^t Q^-1 y mod 1 on G: for x = A u and y = A v,
    A A^t = -Q gives lambda(x, y) = -u^t v, an integer, and |H|^2 = |G|.
    Two column subgroups whose sum is direct are therefore isomorphic:
    lambda is nondegenerate and vanishes on each, so y -> lambda(., y)
    maps H2 one-to-one into Hom(H1, Q/Z), which is isomorphic to H1 and
    of H2's order (Kawauchi-Kojima, Math. Ann. 253, 1980; Wall, Topology
    2, 1963).  Every usable subgroup is thus kept and joined, whatever
    its type.  A splitting pair also makes lambda hyperbolic: for
    x = a + b with a in H1 and b in H2, lambda(x, x) = 2 lambda(a, b), and
    if 2^k x = 0, then 2^k a = 0 as the sum is direct, so
    2^(k-1) lambda(x, x) = 2^k lambda(a, b) = lambda(2^k a, b) = 0.  A
    report refutes the check on H_1 first, with no tree, where G is not
    H + H or the 2-primary part of lambda is odd (``odd_linking_factor``);
    so it searches only where neither fires.

    The pairing runs inside the search: each new subset's column
    subgroup is filtered, and a new one is joined against the kept ones
    and then kept, so the search stops at the first splitting pair.  On
    a pass the filter's "removed" count therefore covers only the
    subsets met before that pair.
    """
    name = "double_subset"
    _require(tree, ("negative_definite", 0), "double-subset obstruction")
    G = replace(group, lift=tree.lift)
    if (refuted := undoubled(name, G)) is not None:
        return refuted
    filtered = G.order % 2 == 1
    removed = 0
    # (H, subset) in search order, each H new: Q is definite, so A is
    # square and nonsingular, and im Q lies in im A, so H = im A / im Q
    # determines im A.  If im A = im A', then A' = A U with U unimodular,
    # and A U U^t A^t = A A^t gives U U^t = I: U is a signed permutation,
    # so A' is in A's orbit, which the search yields once.
    usable: list = []
    witness: list = []

    def split_found(s: LatticeSubset) -> bool:
        nonlocal removed
        H = subset_column_subgroup(G, s)
        if filtered and not char_vector_criterion(H):
            removed += 1
            return False
        if G.order == 1:
            witness.append((s, s))
            return True
        for H1, A1 in usable:
            if direct_sum_test(G, H1, H)[0]:
                witness.extend([(A1, s), (H1, H)])
                return True
        usable.append((H, s))
        return False

    res = enumerate_subsets(tree, budget, until=split_found)
    filtered_note = (
        f"{removed} factorisation(s) removed by the correction-term filter; " if removed else ""
    )
    if witness:
        note = "trivial cokernel" if G.order == 1 else "cokernel splits as H + H"
        return ObstructionResult(name, "pass", witness, filtered_note + note)
    if not res.complete:
        return ObstructionResult(name, "inconclusive", notes=_exhausted(res))
    if G.order == 1:
        return ObstructionResult(
            name, "obstructed", notes=filtered_note + "no factorisation exists"
        )
    return ObstructionResult(
        name,
        "obstructed",
        notes=filtered_note
        + f"complete search: {len(usable)} usable subgroup(s), no splitting pair",
    )


def semidefinite_obstruction(tree: PlumbingTree, budget: int | None = None) -> ObstructionResult:
    """Rectangular factorisation A A^t = -Q through one fewer column, Q
    the form of ``tree``; the search stops at the first one."""
    name = "semidefinite_subset"
    _require(tree, ("negative_semidefinite", 1), "semi-definite obstruction")
    res = enumerate_subsets(tree, budget, until=lambda s: True)
    if res.subsets:
        return ObstructionResult(name, "pass", [res.subsets[0]])
    if res.complete:
        return ObstructionResult(
            name, "obstructed", notes="complete search: no rectangular factorisation"
        )
    return ObstructionResult(name, "inconclusive", notes=_exhausted(res))


def nonorientable_obstruction(
    tree: PlumbingTree, group: FiniteAbelianGroup | None, budget: int | None = None
) -> ObstructionResult:
    """Pair of factorisations with coker Q isomorphic to H_i + H_i and
    |H_1 meet H_2| <= 2, Q the form of ``tree`` (the non-orientable base
    form) and ``group`` its coker Q, as in ``double_subset_obstruction``,
    or None when the form is empty and passes vacuously.
    A subset qualifies when its column subgroup H has
    ``doubled_factors(H.factors)`` equal to the factors of coker Q, so
    none does unless those factors pair up: a non-square |coker Q| or
    unpaired factors refute the check with no search.  The type is tested
    here, as the pair need not split coker Q, and a Lagrangian need not be
    a half: 2G in G = Z/4 + Z/4 is one.  Each new
    qualifying subset is tested against the earlier ones and itself as
    the search finds it, and the search stops at the first good pair."""
    name = "nonorientable_double_subset"
    if tree.size == 0:
        return ObstructionResult(name, "pass", notes="empty form, vacuous")
    _require(tree, ("negative_definite", 0), "non-orientable obstruction")
    G = replace(group, lift=tree.lift)
    if (refuted := undoubled(name, G)) is not None:
        return refuted
    qualifying: list = []
    witness: list = []

    def pair_found(s: LatticeSubset) -> bool:
        H = subset_column_subgroup(G, s)
        if doubled_factors(H.factors) != G.factors:
            return False
        qualifying.append((H, s))
        for H1, A1 in qualifying:
            if direct_sum_test(G, H1, H)[2] <= 2:
                witness.extend([(A1, s), (H1, H)])
                return True
        return False

    res = enumerate_subsets(tree, budget, until=pair_found)
    if witness:
        return ObstructionResult(
            name, "pass", witness, "cokernel is H + H twice over with small intersection"
        )
    if res.complete:
        return ObstructionResult(
            name,
            "obstructed",
            notes=f"complete search: {len(qualifying)} qualifying subset(s), "
            "no pair with intersection <= 2",
        )
    return ObstructionResult(name, "inconclusive", notes=_exhausted(res))
