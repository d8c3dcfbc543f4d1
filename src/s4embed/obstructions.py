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

Every verdict of "obstructed" is backed by a provably completed search;
budget exhaustion downgrades to "inconclusive" instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .intlinalg import (
    FiniteAbelianGroup,
    Subgroup,
    cokernel,
    definiteness,
    determinant,
    direct_sum_test,
    doubled_factors,
    subgroup_from_generators,
)
from .lattice import LatticeSubset, enumerate_subsets


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
            out["certificate"] = [_certificate_json(c) for c in self.certificates]
        return out


def _certificate_json(cert):
    if isinstance(cert, LatticeSubset):
        return {"subset_rows": [list(r) for r in cert.rows]}
    if isinstance(cert, Subgroup):
        return {"subgroup_factors": list(cert.factors), "order": cert.order}
    if isinstance(cert, tuple):
        return [_certificate_json(c) for c in cert]
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
        reachable |= {tuple((a + b) % d for a, b, d in zip(r, g, factors)) for r in reachable}
    return len(reachable) == H.order


def _require_negative_definite(Q, check: str) -> None:
    """Raise ValueError unless Q is negative definite.  Only a check that
    stops before its search calls this: ``enumerate_subsets`` makes the
    same test, so a form that is searched has its signature taken once."""
    if Q and definiteness(Q)[0] != "negative_definite":
        raise ValueError(f"{check} needs negative definite Q")


def double_subset_obstruction(Q, budget: int | None = None) -> ObstructionResult:
    """Search for two factorisations splitting coker Q as H + H.

    The pair must have distinct column subgroups unless the cokernel is
    trivial, in which case a single factorisation suffices.  For odd
    cokernel order, factorisations failing the correction-term filter
    cannot arise from a rational-ball side and are discarded first.
    """
    name = "double_subset"
    n = len(Q)
    det = determinant(Q) * (-1) ** n  # det(-Q) > 0 for negative definite
    if det < 0 or math.isqrt(det) ** 2 != det:
        _require_negative_definite(Q, "double-subset obstruction")
        return ObstructionResult(
            name,
            "obstructed",
            notes=f"|coker Q| = {abs(det)} is not a perfect square, "
            "so no factorisation exists",
        )
    res = enumerate_subsets(Q, "square", budget)  # checks Q itself
    if not res.complete and not res.subsets:
        return ObstructionResult(name, "inconclusive", notes="budget exhausted")

    G = cokernel(Q)
    columns = [(subset_column_subgroup(G, s), s) for s in res.subsets]
    filtered_note = ""
    if G.order % 2 == 1:
        kept = [(H, s) for H, s in columns if char_vector_criterion(H)]
        if len(kept) != len(columns):
            filtered_note = (
                f"{len(columns) - len(kept)} factorisation(s) removed by the "
                "correction-term filter; "
            )
        columns = kept

    if G.order == 1:
        if columns:
            A = columns[0][1]
            return ObstructionResult(name, "pass", [(A, A)], filtered_note + "trivial cokernel")
        if res.complete:
            return ObstructionResult(
                name, "obstructed", notes=filtered_note + "no factorisation exists"
            )
        return ObstructionResult(name, "inconclusive", notes="budget exhausted")

    by_subgroup: dict = {}
    for H, s in columns:
        by_subgroup.setdefault(H.basis, (H, s))
    reps = list(by_subgroup.values())
    # a splitting pair has |H1||H2| = |G| and H1 isomorphic to H2, so
    # only same-type pairs of order sqrt|G| are joined; they keep their
    # (i, j) order, so the first split found is the same
    halves = [(H, s) for H, s in reps if H.order * H.order == G.order]
    for i, (H1, A1) in enumerate(halves):
        for H2, A2 in halves[i + 1:]:
            if H1.factors != H2.factors:
                continue
            is_direct, _, _ = direct_sum_test(G, H1, H2)
            if is_direct:
                return ObstructionResult(
                    name,
                    "pass",
                    [(A1, A2), (H1, H2)],
                    filtered_note + "cokernel splits as H + H",
                )
    if res.complete:
        return ObstructionResult(
            name,
            "obstructed",
            notes=filtered_note
            + f"complete search: {len(reps)} usable subgroup(s), no splitting pair",
        )
    return ObstructionResult(name, "inconclusive", notes="budget exhausted")


def semidefinite_obstruction(Q, budget: int | None = None) -> ObstructionResult:
    """Rectangular factorisation A A^t = -Q through one fewer column."""
    name = "semidefinite_subset"
    res = enumerate_subsets(Q, "rectangular", budget)  # checks Q is corank one
    if res.subsets:
        return ObstructionResult(name, "pass", [res.subsets[0]])
    if res.complete:
        return ObstructionResult(
            name, "obstructed", notes="complete search: no rectangular factorisation"
        )
    return ObstructionResult(name, "inconclusive", notes="budget exhausted")


def nonorientable_obstruction(Q, budget: int | None = None) -> ObstructionResult:
    """Pair of factorisations with coker Q isomorphic to H_i + H_i and
    |H_1 meet H_2| <= 2 (non-orientable base form)."""
    name = "nonorientable_double_subset"
    n = len(Q)
    if n == 0:
        return ObstructionResult(name, "pass", notes="empty form, vacuous")
    det = determinant(Q) * (-1) ** n
    if det < 0 or math.isqrt(det) ** 2 != det:
        _require_negative_definite(Q, "non-orientable obstruction")
        return ObstructionResult(
            name,
            "obstructed",
            notes=f"|coker Q| = {abs(det)} is not a perfect square",
        )
    res = enumerate_subsets(Q, "square", budget)  # checks Q itself
    if not res.complete and not res.subsets:
        return ObstructionResult(name, "inconclusive", notes="budget exhausted")
    G = cokernel(Q)
    qualifying = []
    for s in res.subsets:
        H = subset_column_subgroup(G, s)
        if tuple(sorted(G.factors)) == doubled_factors(H.factors):
            qualifying.append((H, s))
    for i in range(len(qualifying)):
        for j in range(i, len(qualifying)):
            H1, A1 = qualifying[i]
            H2, A2 = qualifying[j]
            _, _, inter = direct_sum_test(G, H1, H2)
            if inter <= 2:
                return ObstructionResult(
                    name, "pass", [(A1, A2), (H1, H2)],
                    "cokernel is H + H twice over with small intersection",
                )
    if res.complete:
        return ObstructionResult(
            name,
            "obstructed",
            notes=f"complete search: {len(qualifying)} qualifying subset(s), "
            "no pair with intersection <= 2",
        )
    return ObstructionResult(name, "inconclusive", notes="budget exhausted")
