"""Enumeration of integer factorisations A A^t = -Q of a plumbing form.

A subset is a set of integer vectors, one per vertex of the plumbing,
realising the (negated) intersection form inside a standard diagonal
lattice: row i has squared length -Q[i][i] and prescribed inner products
with every other row.  Such factorisations are meaningful only up to
signed permutations of the ambient coordinates, i.e. signed column
permutations of A.

The search places rows one at a time, most-constrained vertex first,
enumerating candidate vectors coordinate by coordinate under exact
norm/inner-product bounds, with a Cauchy-Schwarz cut on the inner
products still owed to the placed rows.  The symmetry cuts keep the tree
small while preserving at least one representative per orbit: every
prefix must have its columns weakly increasing in lexicographic order,
and the topmost nonzero entry of every column must be negative.  Two
more cuts follow from these constraints, and remove only subtrees that
yield no row:

- forced entries: at the last nonzero column of a placed row, the entry
  must repay all the inner product still owed to that row, so it is the
  amount owed over the row's entry there, or nothing if that does not
  divide.  Each column keeps the placed rows that end there;
- the zero suffix: the columns that are zero in every placed row form a
  suffix, and the entries there rise weakly to at most 0, so entry c of
  the suffix has the largest square of the entries from c on, and
  x^2 (width - c) >= rem bounds it from above.

Survivors are reduced to a canonical form and de-duplicated, so the
output is the complete, deterministic list of orbit representatives --
or an explicit "budget exhausted" or "stopped" signal, which callers
must never conflate with "none exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import neg
from typing import Callable

from .plumbing import PlumbingTree


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class LatticeSubset:
    """Rows are the subset vectors."""

    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SubsetSearchResult:
    status: str  # 'complete' | 'exhausted' | 'stopped'
    subsets: tuple[LatticeSubset, ...]
    nodes: int  # search nodes visited, at most the budget

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def canonicalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical representative under signed column permutations.

    Each column is replaced by the lexicographically smaller of itself
    and its negation, then columns are sorted; this is constant on
    orbits and minimises the row-major reading of the matrix.
    """
    cols = sorted(min(col, tuple(map(neg, col))) for col in zip(*rows))
    return tuple(zip(*cols)) if cols else ((),) * len(rows)


def _row_order(weights, neighbours) -> list[int]:
    """Deterministic placement order: most placed neighbours first.

    Always prefer vertices with the most already-placed neighbours,
    breaking ties by the larger weight (the smaller norm), then the smaller index.
    A heap holds (-placed neighbours, -weight, index) for the unplaced
    vertices; placing a vertex pushes a fresh entry for each unplaced
    neighbour.  A fresh entry comes up before the stale ones of its
    vertex, which are skipped as placed, so the order takes O(n log n).
    """
    counts = [0] * len(weights)
    heap = [(0, -w, i) for i, w in enumerate(weights)]
    heapify(heap)
    placed: list[int] = []
    done = [False] * len(weights)
    while heap:
        v = heappop(heap)[2]
        if done[v]:
            continue
        done[v] = True
        placed.append(v)
        for u in neighbours[v]:
            if not done[u]:
                counts[u] += 1
                heappush(heap, (-counts[u], -weights[u], u))
    return placed


def enumerate_subsets(
    tree: PlumbingTree,
    budget: int | None = None,
    until: Callable[[LatticeSubset], bool] | None = None,
) -> SubsetSearchResult:
    """All A with A A^t = -Q, up to signed column permutation, Q the form
    of ``tree``, read off its weights and neighbour lists.

    Q must be negative definite, when A is n x n, or negative
    semi-definite of corank one, when A is n x (n-1): the width is n
    minus the corank of the tree's cached inertia.  Any other form
    raises ValueError.

    The search keeps an explicit stack with one frame per placed row, so
    its depth costs no Python recursion.  A frame is a generator over the
    candidates for its row: it walks the coordinates in a loop, one
    search node per prefix of the row, and undoes its updates as it
    backtracks.  For each candidate it places the row, listed under each
    column where it is nonzero and under its last such column, and
    yields the frame below, which the main loop pushes; it takes the row
    back when resumed.  The cuts of the module docstring remove only
    subtrees that yield nothing, so the rows, and the order in which
    ``until`` meets them, are those of the search without them.
    ``budget`` bounds the number of search nodes; exhausting it yields
    status 'exhausted' with whatever was found so far.  ``nodes`` of the
    result counts the nodes visited.

    ``until``, when given, is called once with each new canonical subset,
    in search order, as soon as the search finds it.  If it returns true
    the search stops there with status 'stopped': ``subsets`` holds what
    was found so far, the accepted subset among them, and ``complete``
    is false.
    """
    kind, corank = tree.definiteness
    if kind == "indefinite" or corank > 1:
        raise ValueError("the search needs a negative definite form or one of corank one")
    n = tree.size
    width = n - corank

    if n == 0:
        empty = LatticeSubset(())
        stopped = until is not None and until(empty)
        return SubsetSearchResult("stopped" if stopped else "complete", (empty,), 0)

    order = _row_order(tree.weights, tree.neighbours)
    position = {v: pos for pos, v in enumerate(order)}
    # nodes never equals -1, so no budget means no limit
    limit = -1 if budget is None else max(budget, 0)
    nodes = 0

    rows: list[tuple[int, ...]] = [()] * n  # by vertex
    suffix_sq: list[list[int]] = [[]] * n  # by position: sums of squares of row[c:]
    support: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    closing: list[list[tuple[int, int]]] = [[] for _ in range(width)]  # rows ending there

    def candidates(depth: int, same: list[bool], zero: int):
        """The frame at ``depth``: for each row that fits the placed
        prefix, in search order, it places the row and yields the frame
        below, or, at the last depth, yields the row alone.  ``same[c]``:
        column c equals column c-1 in every placed row; ``zero``: the
        first column of the zero suffix."""
        nonlocal nodes
        i = order[depth]
        # placed position -> the nonzero inner product still owed to its
        # row, -1 to each neighbour of i at the start
        owed = {position[u]: -1 for u in tree.neighbours[i] if position[u] < depth}
        entries = [0] * width
        tops = [0] * width  # the last value to try in each column
        rems = [0] * width  # the remaining norm before each column
        rem = -tree.weights[i]
        c = 0
        while True:
            if nodes == limit:
                raise BudgetExhausted
            nodes += 1
            if not rem:
                # the norm is spent, so entries c.. can only be 0: settle
                # the row at this node, not at one node per zero column
                if not owed and (c == width or not (same[c] and entries[c - 1] > 0)):
                    row = rows[i] = tuple(entries)
                    if depth == n - 1:
                        yield row
                    else:
                        # place the row for the frames below, last column first
                        acc = [0] * (width + 1)
                        cols = []  # its nonzero columns
                        for col in range(width - 1, -1, -1):
                            x = row[col]
                            acc[col] = acc[col + 1] + x * x
                            if x:
                                support[col].append((depth, x))
                                cols.append(col)
                        suffix_sq[depth] = acc
                        last = cols[0] if cols else -1
                        if cols:
                            closing[last].append((depth, row[last]))
                        below = [False] + [
                            same[k] and row[k] == row[k - 1] for k in range(1, width)
                        ]
                        # a nonzero column's negative topmost entry puts it
                        # before the all-zero ones in lexicographic order
                        yield candidates(depth + 1, below, max(zero, last + 1))
                        # the search is back at this frame: take the row back
                        for col in cols:
                            support[col].pop()
                        if cols:
                            closing[last].pop()
            elif c < width:
                for pos, d in owed.items():
                    if d * d > rem * suffix_sq[pos][c]:
                        break
                else:
                    cap = isqrt(rem)
                    lo = -cap
                    if same[c] and entries[c - 1] > lo:
                        lo = entries[c - 1]
                    # entries c.. of the zero suffix rise weakly to at most 0,
                    # so entry c has the largest square of the rest of rem
                    hi = -isqrt((rem - 1) // (width - c)) - 1 if c >= zero else cap
                    # a row that ends at column c is repaid in full by entry c
                    for pos, a in closing[c]:
                        x, rest = divmod(owed.get(pos, 0), a)
                        if rest:
                            hi = lo - 1
                            break
                        if x > lo:
                            lo = x
                        if x < hi:
                            hi = x
                    if lo <= hi:
                        entries[c] = lo
                        tops[c] = hi
                        rems[c] = rem
                        if lo:
                            for pos, a in support[c]:
                                d = owed.get(pos, 0) - lo * a
                                if d:
                                    owed[pos] = d
                                else:
                                    del owed[pos]
                        rem -= lo * lo
                        c += 1
                        continue
            # backtrack to the last column with a value left to try,
            # setting the columns passed on the way back to zero
            while True:
                c -= 1
                if c < 0:
                    return
                v = entries[c]
                w = v + 1 if v < tops[c] else 0
                step = w - v
                if step:
                    entries[c] = w
                    for pos, a in support[c]:
                        d = owed.get(pos, 0) - step * a
                        if d:
                            owed[pos] = d
                        else:
                            del owed[pos]
                if v < tops[c]:
                    rem = rems[c] - w * w
                    c += 1
                    break

    found: set[tuple[tuple[int, ...], ...]] = set()
    status = "complete"
    frames = [candidates(0, [False] + [True] * (width - 1), 0)]
    try:
        while frames:
            child = next(frames[-1], None)
            if child is None:
                frames.pop()
            elif len(frames) < n:
                frames.append(child)
            else:
                subset = canonicalize_rows(rows)
                if subset not in found:
                    found.add(subset)
                    if until is not None and until(LatticeSubset(subset)):
                        status = "stopped"
                        break
    except BudgetExhausted:
        status = "exhausted"

    subsets = tuple(LatticeSubset(subset) for subset in sorted(found))
    return SubsetSearchResult(status, subsets, nodes)
