"""Enumeration of integer factorisations A A^t = -Q of a plumbing form.

A subset is a set of integer vectors, one per vertex of the plumbing,
realising the (negated) intersection form inside a standard diagonal
lattice: row i has squared length -Q[i][i] and prescribed inner products
with every other row.  The search takes the ``PlumbingTree`` of Q and
reads its definiteness off the cached inertia, and Q off the weights and
the neighbour lists, so no dense form is built.  Such
factorisations are searched for negative definite Q (A is n x n) and
negative semi-definite Q of corank one (A is n x (n-1), one column
fewer); the width of A is n minus the corank.  They are meaningful only
up to signed permutations of the ambient coordinates, i.e. signed
column permutations of A.

The search places rows one at a time, most-constrained vertex first,
enumerating candidate vectors coordinate by coordinate under exact
norm/inner-product bounds.  It runs on an explicit stack, one frame per
placed row, so a plumbing of any size searches without Python recursion.
The frames share state that is pushed and popped with the rows: for
each column the placed rows nonzero there, so an entry updates only the
inner products it changes; each row's suffix sums of squares, for the
Cauchy-Schwarz cut; and, for the symmetry cuts, a flag per column and
the first column that every placed row leaves zero.  The symmetry cuts
keep the tree small while preserving at least one representative per
orbit: every prefix must have its columns weakly increasing in
lexicographic order, and the topmost nonzero entry of every column must
be negative.  Two more cuts follow from these constraints, and remove
only subtrees that yield no row:

- forced entries: at the last nonzero column of a placed row, the entry
  must repay that row's whole inner-product deficit, so it is the
  deficit over the row's entry there, or nothing if that does not
  divide.  Each column keeps the placed rows that end there;
- the zero suffix: the columns that are zero in every placed row form a
  suffix, and the entries there rise weakly to at most 0, so entry c of
  the suffix has the largest square of the entries from c on, and
  x^2 (width - c) >= rem bounds it from above.

Survivors are reduced to a canonical form and de-duplicated, so the
output is the complete, deterministic list of orbit representatives --
or an explicit "budget exhausted" signal, which callers must never
conflate with "none exist".

A caller that needs only one witness passes ``until``: the search hands
it each new representative as it is found, in search order, and stops
with status 'stopped' as soon as it returns true.  A stopped search has
not seen the whole tree, so like an exhausted one it proves nothing
about the subsets it did not reach.
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
    of ``tree``.

    Q must be negative definite, when A is n x n, or negative
    semi-definite of corank one, when A is n x (n-1): the width is n
    minus the corank of the tree's cached inertia.  Any other form
    raises ValueError.

    The search keeps an explicit stack with one frame per placed row.  A
    frame is a generator of candidate rows: it walks the coordinates in a
    loop, one search node per prefix of the row, and undoes its updates
    as it backtracks, so the depth of the search costs no Python
    recursion.  For each column the placed rows that are nonzero there
    are listed, and placing an entry updates the inner-product deficits
    of those rows only.  Besides the symmetry and Cauchy-Schwarz cuts,
    an entry is forced where a placed row ends, and bounded above in the
    all-zero suffix of the columns (see the module docstring); each cut
    removes only subtrees that yield nothing, so the rows, and the
    order in which ``until`` meets them, are those of the search without
    them.  ``budget`` bounds the number of search nodes;
    exhausting it yields status 'exhausted' with whatever was found so
    far.  ``nodes`` of the result counts the nodes visited.

    ``until``, when given, is called once with each new canonical subset,
    in search order, as soon as the search finds it.  If it returns true
    the search stops there with status 'stopped': ``subsets`` holds what
    was found so far, the accepted subset among them, and ``complete``
    is false.  The callback does not change the tree, so a search whose
    callback never accepts visits the same nodes as one without it.
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

    # State of the placed rows, pushed and popped with them.
    placed: list[tuple[int, ...]] = []  # row vectors in search order
    suffix_sq: list[list[int]] = []  # per row: sums of squares of row[c:]
    support: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    closing: list[list[tuple[int, int]]] = [[] for _ in range(width)]  # rows ending there
    # per prefix depth: column c equals column c-1; the first of the
    # all-zero columns, which form a suffix, as a nonzero column's
    # negative topmost entry puts it before them in lexicographic order
    same_as_prev = [[False] + [True] * (width - 1)]
    zero_from = [0]

    def candidates(depth: int):
        """Rows that fit the placed prefix at ``depth``, in search order.

        The node with prefix entries[:c] checks that no placed row's
        remaining inner product exceeds what Cauchy-Schwarz allows in
        the remaining columns, then tries the values of entry c that the
        symmetry cuts admit: the columns of the prefix stay weakly
        increasing in lexicographic order, and the topmost nonzero entry
        of a column is negative.  Within those, a row ending at column c
        forces entry c, and in the zero suffix entry c is at most
        -ceil(sqrt(rem / (width - c))).
        """
        nonlocal nodes
        i = order[depth]
        # deficit[pos]: inner product still owed to placed row pos, -1 to a
        # neighbour of i and 0 to any other; the rows in ``live`` owe a nonzero amount
        live = {position[u] for u in tree.neighbours[i] if position[u] < depth}
        deficit = [-(pos in live) for pos in range(depth)]
        same, zero = same_as_prev[depth], zero_from[depth]
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
                if not live and (c == width or not (same[c] and entries[c - 1] > 0)):
                    yield tuple(entries)
            elif c < width:
                for pos in live:
                    d = deficit[pos]
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
                        x, rest = divmod(deficit[pos], a)
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
                                d = deficit[pos] - lo * a
                                deficit[pos] = d
                                if d:
                                    live.add(pos)
                                else:
                                    live.discard(pos)
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
                        d = deficit[pos] - step * a
                        deficit[pos] = d
                        if d:
                            live.add(pos)
                        else:
                            live.discard(pos)
                if v < tops[c]:
                    rem = rems[c] - w * w
                    c += 1
                    break

    def push(row: tuple[int, ...]) -> None:
        pos = len(placed)
        placed.append(row)
        acc = [0] * (width + 1)
        last = None
        for c in range(width - 1, -1, -1):
            acc[c] = acc[c + 1] + row[c] * row[c]
            if row[c]:
                support[c].append((pos, row[c]))
                if last is None:
                    last = c
                    closing[c].append((pos, row[c]))
        suffix_sq.append(acc)
        same = same_as_prev[-1]
        same_as_prev.append(
            [False] + [same[c] and row[c] == row[c - 1] for c in range(1, width)]
        )
        zero_from.append(zero_from[-1] if last is None else max(zero_from[-1], last + 1))

    def pop() -> None:
        row = placed.pop()
        last = None
        for c in range(width):
            if row[c]:
                support[c].pop()
                last = c
        if last is not None:
            closing[last].pop()
        suffix_sq.pop()
        same_as_prev.pop()
        zero_from.pop()

    found: set[tuple[tuple[int, ...], ...]] = set()
    status = "complete"
    frames = [candidates(0)]
    try:
        while frames:
            row = next(frames[-1], None)
            if row is None:
                frames.pop()
                if placed:
                    pop()
            elif len(placed) == n - 1:
                rows_in_input_order = [None] * n
                for pos, vec in enumerate(placed):
                    rows_in_input_order[order[pos]] = vec
                rows_in_input_order[order[-1]] = row
                rows = canonicalize_rows(rows_in_input_order)
                if rows not in found:
                    found.add(rows)
                    if until is not None and until(LatticeSubset(rows)):
                        status = "stopped"
                        break
            else:
                push(row)
                frames.append(candidates(len(placed)))
    except BudgetExhausted:
        status = "exhausted"

    subsets = tuple(LatticeSubset(rows) for rows in sorted(found))
    return SubsetSearchResult(status, subsets, nodes)
