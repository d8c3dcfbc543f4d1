"""Enumeration of integer factorisations A A^t = -Q of a plumbing form.

A subset is a set of integer vectors, one per vertex of the plumbing,
realising the (negated) intersection form inside a standard diagonal
lattice: row i has squared length -Q[i][i] and prescribed inner products
with every other row.  Such factorisations exist only for negative
definite Q (square mode, A is n x n) or negative semi-definite Q of
corank one (rectangular mode, A is n x (n-1)), and they are meaningful
only up to signed permutations of the ambient coordinates, i.e. signed
column permutations of A.

The search places rows one at a time, most-constrained vertex first,
enumerating candidate vectors coordinate by coordinate under exact
norm/inner-product bounds.  Two symmetry cuts keep the tree small while
preserving at least one representative per orbit: every prefix must have
its columns weakly increasing in lexicographic order, and the topmost
nonzero entry of every column must be negative.  Survivors are reduced
to a canonical form and de-duplicated, so the output is the complete,
deterministic list of orbit representatives -- or an explicit
"budget exhausted" signal, which callers must never conflate with
"none exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .intlinalg import definiteness


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class LatticeSubset:
    """Rows are the subset vectors; mode records square vs rectangular."""

    rows: tuple[tuple[int, ...], ...]
    mode: str

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def gram(self) -> list[list[int]]:
        return [[sum(a * b for a, b in zip(r, s)) for s in self.rows] for r in self.rows]


@dataclass(frozen=True)
class SubsetSearchResult:
    status: str  # 'complete' | 'exhausted'
    subsets: tuple[LatticeSubset, ...]

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def canonicalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical representative under signed column permutations.

    Each column is replaced by the lexicographically smaller of itself
    and its negation, then columns are sorted; this is constant on
    orbits and minimises the row-major reading of the matrix.
    """
    cols = [min(col, tuple(-x for x in col)) for col in zip(*rows)]
    cols.sort()
    return tuple(tuple(col[i] for col in cols) for i in range(len(rows)))


def verify_factorization(A, Q) -> bool:
    """True iff A A^t = -Q entrywise."""
    rows = A.rows if isinstance(A, LatticeSubset) else tuple(tuple(r) for r in A)
    if len(rows) != len(Q):
        return False
    for i, r in enumerate(rows):
        for j, s in enumerate(rows):
            if sum(a * b for a, b in zip(r, s)) != -Q[i][j]:
                return False
    return True


def _row_order(G) -> list[int]:
    """Deterministic placement order: heaviest constraints first.

    Start from the largest norm; afterwards always prefer vertices with
    the most already-placed neighbours, breaking ties by norm then index.
    """
    n = len(G)
    placed: list[int] = []
    remaining = set(range(n))
    while remaining:
        best = max(
            remaining,
            key=lambda i: (
                sum(1 for j in placed if G[i][j] != 0),
                G[i][i],
                -i,
            ),
        )
        placed.append(best)
        remaining.remove(best)
    return placed


def enumerate_subsets(
    Q,
    mode: str = "square",
    budget: int | None = None,
) -> SubsetSearchResult:
    """All A with A A^t = -Q, up to signed column permutation.

    mode 'square' wants Q negative definite and returns n x n matrices;
    mode 'rectangular' wants corank-one negative semi-definite Q and
    returns n x (n-1) matrices.  ``budget`` bounds the number of search
    nodes; exhausting it yields status 'exhausted' with whatever was
    found so far.
    """
    n = len(Q)
    for i in range(n):
        for j in range(n):
            if Q[i][j] != Q[j][i]:
                raise ValueError("Q must be symmetric")
    kind, corank = definiteness(Q)
    if mode == "square":
        if n and kind != "negative_definite":
            raise ValueError("square mode needs negative definite Q")
        width = n
    elif mode == "rectangular":
        if kind != "negative_semidefinite" or corank != 1:
            raise ValueError("rectangular mode needs corank-one semi-definite Q")
        width = n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if n == 0:
        return SubsetSearchResult("complete", (LatticeSubset((), mode),))

    order = _row_order(Q)
    gram = [[-Q[i][j] for j in range(n)] for i in range(n)]

    found: set[tuple[tuple[int, ...], ...]] = set()
    nodes = 0
    status = "complete"

    placed: list[tuple[int, ...]] = []  # row vectors in search order

    def column_keys():
        """Columns of the placed prefix, as tuples, for tie grouping."""
        return [tuple(r[c] for r in placed) for c in range(width)]

    def extend(depth: int):
        nonlocal nodes, status
        if depth == n:
            rows_in_input_order = [None] * n
            for pos, vec in enumerate(placed):
                rows_in_input_order[order[pos]] = vec
            found.add(canonicalize_rows(rows_in_input_order))
            return
        i = order[depth]
        norm = gram[i][i]
        targets = [(pos, gram[i][order[pos]]) for pos in range(depth)]
        prefix_cols = column_keys()
        # suffix sums of squares of each placed row, for Cauchy-Schwarz cuts
        suffix_sq = []
        for pos in range(depth):
            row = placed[pos]
            acc = [0] * (width + 1)
            for c in range(width - 1, -1, -1):
                acc[c] = acc[c + 1] + row[c] * row[c]
            suffix_sq.append(acc)

        entries = [0] * width

        def place(c: int, rem_norm: int, inners: list[int]):
            nonlocal nodes
            if budget is not None and nodes >= budget:
                raise BudgetExhausted
            nodes += 1
            if c == width:
                if rem_norm == 0 and all(
                    inners[t] == g for t, (_, g) in enumerate(targets)
                ):
                    placed.append(tuple(entries))
                    extend(depth + 1)
                    placed.pop()
                return
            # remaining-product feasibility for every placed row
            for t, (pos, g) in enumerate(targets):
                deficit = g - inners[t]
                if deficit * deficit > rem_norm * suffix_sq[pos][c]:
                    return
            cap = isqrt(rem_norm)
            lo, hi = -cap, cap
            # symmetry cuts relative to the previous column
            if c > 0 and prefix_cols[c] == prefix_cols[c - 1]:
                lo = max(lo, entries[c - 1])
            if all(x == 0 for x in prefix_cols[c]):
                hi = min(hi, 0)
            for v in range(lo, hi + 1):
                entries[c] = v
                new_inners = [
                    inners[t] + v * placed[pos][c] for t, (pos, _) in enumerate(targets)
                ]
                place(c + 1, rem_norm - v * v, new_inners)
            entries[c] = 0

        place(0, norm, [0] * len(targets))

    try:
        extend(0)
    except BudgetExhausted:
        status = "exhausted"

    subsets = tuple(
        LatticeSubset(rows, mode) for rows in sorted(found)
    )
    return SubsetSearchResult(status, subsets)


def naive_enumerate_subsets(Q, mode: str = "square") -> tuple[LatticeSubset, ...]:
    """Brute-force oracle: product over rows of all norm shells, filtered.

    Only usable for tiny Q; exists to certify the pruned search.
    """
    n = len(Q)
    width = n if mode == "square" else n - 1
    shells = []
    for i in range(n):
        norm = -Q[i][i]
        shell = []

        def gen(c, rem, acc):
            if c == width:
                if rem == 0:
                    shell.append(tuple(acc))
                return
            cap = isqrt(rem)
            for v in range(-cap, cap + 1):
                gen(c + 1, rem - v * v, acc + [v])

        gen(0, norm, [])
        shells.append(shell)

    out = set()

    def build(i, rows):
        if i == n:
            out.add(canonicalize_rows(rows))
            return
        for v in shells[i]:
            if all(
                sum(a * b for a, b in zip(v, rows[j])) == -Q[i][j] for j in range(i)
            ):
                build(i + 1, rows + [v])

    build(0, [])
    return tuple(LatticeSubset(rows, mode) for rows in sorted(out))
