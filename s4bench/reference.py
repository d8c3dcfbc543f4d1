"""Known answers for the benchmark inputs, written without s4embed.

Every rule here restates a theorem or a construction directly, so the
benchmark can judge the program's verdicts without calling the checks it
is timing:

* lens sums: # L(p_i, q_i) embeds iff every p_i is odd and the summands
  pair into mirrors L(p, q), L(p, -q) (Donald, arXiv 1203.6008);
* pretzel covers with at least three strands |a_i| >= 2: the embeddable
  families Y(a,-a,a), Y(a,-a,a,-a), Y(a,-a,b,-b) with a or b odd and
  Y(a+-1,-a,a,-a), up to mirror and Rolfsen twist; the open family
  Y(2l-1,-2l-1,-2l^2) is UNKNOWN and every other cover is OBSTRUCTED;
* Seifert spaces over S^2 with at most two exceptional fibres (and pretzel
  covers with at most two strands |a_i| >= 2) are lens spaces: S^3 and
  S^1 x S^2 embed, any other lens space does not.

Certificates are checked by recomputing A A^t and comparing it with the
negated plumbing form of the matching orientation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

EMBEDS, OBSTRUCTED, UNKNOWN = "EMBEDS", "OBSTRUCTED", "UNKNOWN"


# ---------------------------------------------------------------------------
# lens spaces


def lens_class(p: int, q: int) -> tuple[int, int]:
    """L(p, q) = L(p, q') iff q' = q^+-1 mod p: keep the smaller of the two."""
    q %= p
    return p, min(q, pow(q, -1, p))


def mirror_matched(summands) -> bool:
    """Can the summands be split into pairs L(p, q), L(p, -q)?"""
    counts = Counter(lens_class(p, q) for p, q in summands)
    for (p, q), n in counts.items():
        partner = lens_class(p, -q)
        if partner == (p, q):
            if n % 2:
                return False
        elif counts[partner] != n:
            return False
    return True


def lens_sum_verdict(summands) -> str:
    if all(p % 2 for p, _ in summands) and mirror_matched(summands):
        return EMBEDS
    return OBSTRUCTED


def lens_space_verdict(order: int) -> str:
    """A single lens space with |H_1| = order (0 for S^1 x S^2)."""
    return EMBEDS if order in (0, 1) else OBSTRUCTED


def small_seifert_verdict(r: int, fibres) -> str:
    """Seifert space over S^2 with at most two fibres: |H_1| = |e| prod a_i."""
    if len(fibres) > 2:
        raise ValueError("more than two fibres is not a lens space")
    e = sum((Fraction(b, a) for a, b in fibres), Fraction(0)) - r
    prod = 1
    for a, _ in fibres:
        prod *= a
    return lens_space_verdict(abs(int(e * prod)))


# ---------------------------------------------------------------------------
# pretzel covers


def pretzel_key(strands) -> tuple:
    """Oriented Seifert invariant of Y(a_1, ..., a_n): fibres (|a|, sign a mod |a|)
    for |a| >= 2, and e = sum 1/a_i (a +-1 strand twists into the framing)."""
    fibres = tuple(sorted((abs(a), (1 if a > 0 else -1) % abs(a)) for a in strands if abs(a) >= 2))
    return fibres, sum((Fraction(1, a) for a in strands), Fraction(0))


def _honest(strands) -> list[int]:
    return [a for a in strands if abs(a) >= 2]


@lru_cache(maxsize=None)
def _family_keys(bound: int) -> tuple[frozenset, frozenset]:
    """Keys of the embeddable and open families with every parameter in
    [-bound, bound]; only members with three or more honest strands."""
    params = [a for a in range(-bound, bound + 1) if a]
    embeds = []
    for a in params:
        embeds.append((a, -a, a))
        embeds.append((a, -a, a, -a))
        for d in (a + 1, a - 1):
            if d:
                embeds.append((d, -a, a, -a))
        for b in params:
            if a % 2 or b % 2:
                embeds.append((a, -a, b, -b))
    unknown = []
    for l in range(1, bound + 1):
        if 2 * l * l > bound:
            break
        unknown.append((2 * l - 1, -2 * l - 1, -2 * l * l))

    def keys(family) -> frozenset:
        return frozenset(pretzel_key(s) for s in family if len(_honest(s)) >= 3)

    return keys(embeds), keys(unknown)


def pretzel_verdict(strands) -> str:
    strands = tuple(strands)
    honest = _honest(strands)
    if len(honest) <= 2:
        _, e = pretzel_key(strands)
        prod = 1
        for a in honest:
            prod *= abs(a)
        return lens_space_verdict(abs(int(e * prod)))
    keys = {pretzel_key(strands), pretzel_key([-a for a in strands])}
    embeds, unknown = _family_keys(max(abs(a) for a in strands) + 1)
    if keys & embeds:
        return EMBEDS
    if keys & unknown:
        return UNKNOWN
    return OBSTRUCTED


# ---------------------------------------------------------------------------
# certificates


def neg_continued_fraction(p: int, q: int) -> tuple[int, ...]:
    """p/q = [c_1, ..., c_n]^- with every c_i >= 2."""
    out = []
    while q:
        c = -(-p // q)
        out.append(c)
        p, q = q, c * q - p
    return tuple(out)


def lens_chain_multiset(summands) -> Counter:
    """The plumbing of # L(p_i, q_i): one chain of weights -c_j per summand.
    A chain read backwards is the same plumbing, so store the smaller reading."""
    chains = Counter()
    for p, q in summands:
        seq = tuple(-c for c in neg_continued_fraction(p, q % p))
        chains[min(seq, seq[::-1])] += 1
    return chains


def gram(rows) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]


def forest_chains(Q) -> Counter | None:
    """Read a symmetric form as a disjoint union of linear plumbing chains
    (off-diagonal entries 0 or 1, every component a path); None otherwise."""
    n = len(Q)
    adj = [[j for j in range(n) if j != i and Q[i][j]] for i in range(n)]
    if any(Q[i][j] not in (0, 1) for i in range(n) for j in adj[i]):
        return None
    if any(len(nb) > 2 for nb in adj):
        return None
    seen = set()
    chains = Counter()
    for start in range(n):
        if start in seen or len(adj[start]) == 2:
            continue
        path, prev, cur = [], None, start
        while cur is not None:
            seen.add(cur)
            path.append(cur)
            nxt = [j for j in adj[cur] if j != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        seq = tuple(Q[i][i] for i in path)
        chains[min(seq, seq[::-1])] += 1
    if len(seen) != n:  # a cycle left over
        return None
    return chains


def check_lens_certificate(rows, summands) -> bool:
    """Does A A^t = -Q for Q the plumbing of # L(p_i, q_i)?"""
    rows = [tuple(r) for r in rows]
    width = {len(r) for r in rows}
    if not rows or len(width) != 1 or width.pop() != len(rows):
        return False
    negQ = gram(rows)
    Q = [[-x for x in row] for row in negQ]
    return forest_chains(Q) == lens_chain_multiset(summands)


def subset_certificates(report: dict) -> list[tuple[str, list]]:
    """(obstruction name, subset rows) for every subset in a JSON report."""
    out = []

    def walk(name, node):
        if isinstance(node, dict) and "subset_rows" in node:
            out.append((name, node["subset_rows"]))
        elif isinstance(node, list):
            for item in node:
                walk(name, item)

    for result in report.get("obstructions", []):
        walk(result["name"], result.get("certificate", []))
    return out
