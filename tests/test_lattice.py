import random
import sys
from math import isqrt
from typing import Callable

import pytest

from s4embed import obstructions
from s4embed.lattice import (
    BudgetExhausted,
    LatticeSubset,
    SubsetSearchResult,
    _row_order,
    canonicalize_rows,
    enumerate_subsets,
)
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold, pretzel_to_seifert
from s4embed.plumbing import PlumbingTree, plumbing_tree
from test_intlinalg import dense, searched


def forest(weights, edges=()) -> PlumbingTree:
    return PlumbingTree(tuple(weights), tuple(edges))


def chain(weights) -> PlumbingTree:
    return forest(weights, [(i, i + 1) for i in range(len(weights) - 1)])


def naive_enumerate_subsets(tree, corank: int = 0) -> tuple[LatticeSubset, ...]:
    """Brute-force oracle: product over rows of all norm shells, filtered,
    in width n - corank.

    Only usable for tiny forms; exists to certify the pruned search.
    """
    Q = dense(tree)
    n = len(Q)
    width = n - corank
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
    return tuple(LatticeSubset(rows) for rows in sorted(out))


def verify_factorization(A, Q) -> bool:
    """True iff A A^t = -Q entrywise: the oracle every certificate test
    checks a factorisation with."""
    rows = A.rows if isinstance(A, LatticeSubset) else tuple(tuple(r) for r in A)
    if len(rows) != len(Q):
        return False
    for i, r in enumerate(rows):
        for j, s in enumerate(rows):
            if sum(a * b for a, b in zip(r, s)) != -Q[i][j]:
                return False
    return True


def p_chain(p):
    """The plumbing of lens(p,1) + lens(p,p-1): one vertex and a (p-1)-chain."""
    return plumbing_tree(LensSum([(p, 1), (p, p - 1)]))


def test_verify_factorization_cases():
    Q = [[-3, 0, 0], [0, -2, 1], [0, 1, -2]]
    A = [[1, 1, 1], [1, -1, 0], [0, 1, -1]]
    assert verify_factorization(A, Q)
    assert verify_factorization([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
    assert not verify_factorization([[1]], [[-4]])


def test_minus4_has_single_class():
    res = enumerate_subsets(forest([-4]))
    assert res.complete
    assert len(res.subsets) == 1
    assert abs(res.subsets[0].rows[0][0]) == 2


def test_l32_chain_has_no_subsets():
    res = enumerate_subsets(chain([-2, -2]))
    assert res.complete
    assert res.subsets == ()


L31_L32 = forest([-3, -2, -2], [(1, 2)])


def test_lens_sum_l31_l32_contains_standard_subset():
    res = enumerate_subsets(L31_L32)
    assert res.complete
    target = canonicalize_rows([[1, 1, 1], [1, -1, 0], [0, 1, -1]])
    assert target in {s.rows for s in res.subsets}
    for s in res.subsets:
        assert verify_factorization(s, dense(L31_L32))


def test_rectangular_rank_one():
    res = enumerate_subsets(forest([-1, -1], [(0, 1)]))
    assert res.complete
    assert len(res.subsets) == 1
    rows = res.subsets[0].rows
    assert sorted(abs(r[0]) for r in rows) == [1, 1]
    assert rows[0][0] * rows[1][0] == -1


def test_search_refuses_indefinite_and_corank_two_forms():
    with pytest.raises(ValueError):
        enumerate_subsets(forest([1]))
    with pytest.raises(ValueError):
        enumerate_subsets(chain([-2, 1, -2]))
    corank_two = forest([-1, -1, 0], [(0, 1)])
    assert corank_two.definiteness == ("negative_semidefinite", 2)
    with pytest.raises(ValueError):
        enumerate_subsets(corank_two)


def test_checks_refuse_the_wrong_definiteness():
    """The rectangular check refuses a definite form, and the square one a
    semi-definite form it would otherwise search in one column fewer."""
    with pytest.raises(ValueError):
        obstructions.semidefinite_obstruction(chain([-2, -2]))
    e0, G = searched(pretzel_to_seifert(PretzelCover([2, -2, 2, -2])), "+")
    assert e0.definiteness == ("negative_semidefinite", 1)
    with pytest.raises(ValueError):
        obstructions.double_subset_obstruction(e0, G)
    with pytest.raises(ValueError):
        obstructions.nonorientable_obstruction(e0, G)


def test_budget_exhaustion_reported():
    res = enumerate_subsets(chain([-2] * 8), budget=5)
    assert res.status == "exhausted"


def test_no_pair_related_by_signed_permutation():
    res = enumerate_subsets(L31_L32)
    seen = set()
    for s in res.subsets:
        key = canonicalize_rows(s.rows)
        assert key == s.rows  # already canonical
        assert key not in seen
        seen.add(key)


def random_forest(rng, n, max_diag) -> PlumbingTree:
    """Unit-edge forest on n vertices with weights in [-max_diag, -1]."""
    weights = [-rng.randint(1, max_diag) for _ in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.7]
    return forest(weights, edges)


def random_with_definiteness(rng, n, max_diag, definiteness) -> PlumbingTree:
    while True:
        tree = random_forest(rng, n, max_diag)
        if tree.definiteness == definiteness:
            return tree


def random_negative_definite(rng, n, max_diag) -> PlumbingTree:
    return random_with_definiteness(rng, n, max_diag, ("negative_definite", 0))


def test_oracle_equivalence_randomised():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 4)
        tree = random_negative_definite(rng, n, 6)
        fast = enumerate_subsets(tree)
        assert fast.complete
        slow = naive_enumerate_subsets(tree)
        assert {s.rows for s in fast.subsets} == {s.rows for s in slow}


def test_oracle_equivalence_on_corank_one_forests():
    """The search in one column fewer against the naive rectangular
    enumeration, on random semi-definite forests of corank one."""
    rng = random.Random(2025)
    found = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        tree = random_with_definiteness(rng, n, 3, ("negative_semidefinite", 1))
        fast = enumerate_subsets(tree)
        assert fast.complete
        slow = naive_enumerate_subsets(tree, corank=1)
        assert {s.rows for s in fast.subsets} == {s.rows for s in slow}
        assert all(len(row) == n - 1 for s in fast.subsets for row in s.rows)
        found += bool(fast.subsets)
    assert found >= 10


def test_rectangular_columns_span_full_rank():
    from s4embed.intlinalg import smith_normal_form

    tree = plumbing_tree(pretzel_to_seifert(PretzelCover([2, -2, 2, -2])))
    res = enumerate_subsets(tree)
    assert res.complete
    assert res.subsets, "the e=0 pretzel cover plumbing factors"
    for s in res.subsets:
        width = len(s.rows[0])
        _, D, _ = smith_normal_form([list(r) for r in s.rows])
        rank = sum(1 for i in range(min(len(D), width)) if D[i][i] != 0)
        assert rank == width


def test_lens_chain_subsets_verify():
    for p, q in [(9, 2), (8, 3), (12, 5), (13, 5)]:
        tree = plumbing_tree(LensSum([(p, q)]))
        res = enumerate_subsets(tree)
        assert res.complete
        for s in res.subsets:
            assert verify_factorization(s, dense(tree))


LENS_21, LENS_21_H1 = searched(LensSum([(21, 8), (21, 13)]), "+")

# Node counts of the search, pinned so that a change to how the search
# runs cannot silently change the tree it visits (and so what a budget
# means).  The smallest budget at which the search completes is its node
# count.
PINNED_NODES = {
    "chain8": (chain([-2] * 8), 81, 0),
    "diag3_chain2": (L31_L32, 19, 2),
    "p_chain12": (p_chain(12), 175, 2),
    "lens21": (LENS_21, 505, 4),
    "seifert_5_5_3": (plumbing_tree(SeifertManifold(True, 0, 0, [(5, 2), (5, 3), (3, 1)])), 143, 1),
    "pretzel_e0": (plumbing_tree(pretzel_to_seifert(PretzelCover([2, -2, 2, -2]))), 59, 3),
}
# Case ids stay as first pinned, so each case keeps its name across
# re-pins; the node count in an id is the count before the search
# settled a spent row at one node and before its forced-entry and
# zero-suffix cuts, and "square" or "rectangular" says
# whether the form is definite or semi-definite of corank one.
PINNED_IDS = [
    "Q0-square-230-0",
    "Q1-square-40-2",
    "Q2-square-640-2",
    "Q3-square-1092-4",
    "Q4-square-353-1",
    "Q5-rectangular-138-3",
]
# Deep searches, pinned the same way: frames stack 61 and 201 rows deep.
DEEP_PINS = {
    "p_chain61": (p_chain(61), 2428, 2),
    "lens201": (plumbing_tree(LensSum([(201, 200), (201, 1)]), "+"), 22126, 2),
}


@pytest.mark.parametrize(
    "tree, nodes, count",
    list(PINNED_NODES.values()) + list(DEEP_PINS.values()),
    ids=PINNED_IDS + list(DEEP_PINS),
)
def test_search_tree_is_pinned(tree, nodes, count):
    res = enumerate_subsets(tree)
    assert res.complete
    assert (res.nodes, len(res.subsets)) == (nodes, count)
    assert enumerate_subsets(tree, budget=nodes) == res
    short = enumerate_subsets(tree, budget=nodes - 1)
    assert short.status == "exhausted"
    assert short.nodes == nodes - 1


@pytest.mark.parametrize("tree, nodes, count", list(PINNED_NODES.values()), ids=PINNED_IDS)
def test_until_sees_each_subset_once(tree, nodes, count):
    """A callback that never accepts is handed every canonical subset
    once, in search order, and leaves the pinned tree as it is."""
    seen = []
    res = enumerate_subsets(tree, until=lambda s: seen.append(s) or False)
    assert res == enumerate_subsets(tree)
    assert (res.status, res.nodes) == ("complete", nodes)
    assert len(seen) == len(set(seen)) == count
    assert sorted(s.rows for s in seen) == [s.rows for s in res.subsets]


def test_until_stops_at_the_first_accepted_subset():
    seen = []
    res = enumerate_subsets(LENS_21, until=lambda s: seen.append(s) or len(seen) == 2)
    assert res.status == "stopped" and not res.complete
    assert res.nodes < PINNED_NODES["lens21"][1]
    assert set(res.subsets) == set(seen) and len(seen) == 2
    # the first subset the search meets ends a search that accepts any
    first = enumerate_subsets(LENS_21, until=lambda s: True)
    assert first.subsets == (seen[0],) and first.nodes < res.nodes


def searched_status(monkeypatch):
    """Record the status of every search the obstruction checks run."""
    statuses = []

    def recorded(*args, **kwargs):
        res = search(*args, **kwargs)
        statuses.append(res.status)
        return res

    search = obstructions.enumerate_subsets
    monkeypatch.setattr(obstructions, "enumerate_subsets", recorded)
    return statuses


# lens(21,8) + lens(21,13): the double-subset check meets its first
# splitting pair at node 248 of the 505 of the complete search
FIRST_SPLIT, ALL_NODES = 248, PINNED_NODES["lens21"][1]


@pytest.mark.parametrize(
    "budget",
    [FIRST_SPLIT, FIRST_SPLIT + 1, ALL_NODES - 1, None],
    ids=["first_split", "first_split+1", "all_nodes-1", None],
)
def test_double_subset_passes_once_its_witness_is_reached(monkeypatch, budget):
    statuses = searched_status(monkeypatch)
    res = obstructions.double_subset_obstruction(LENS_21, LENS_21_H1, budget)
    assert res.verdict == "pass"
    assert statuses == ["stopped"]


@pytest.mark.parametrize("budget", [0, 1, FIRST_SPLIT - 1], ids=[None, None, "first_split-1"])
def test_double_subset_is_inconclusive_before_its_witness(monkeypatch, budget):
    statuses = searched_status(monkeypatch)
    res = obstructions.double_subset_obstruction(LENS_21, LENS_21_H1, budget)
    assert res.verdict == "inconclusive"
    assert statuses == ["exhausted"]


def test_inconclusive_notes_say_how_far_the_search_got():
    """An exhausted search reports the nodes it used and the subsets it
    found, in each of the three checks."""
    res = obstructions.double_subset_obstruction(LENS_21, LENS_21_H1, FIRST_SPLIT - 1)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 247 nodes; 2 subset(s) found",
    )
    e0 = plumbing_tree(pretzel_to_seifert(PretzelCover([2, -2, 2, -2])))
    res = obstructions.semidefinite_obstruction(e0, 10)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 10 nodes; 0 subset(s) found",
    )
    legs, G = searched(SeifertManifold(False, 1, 0, [(3, 1), (3, -1)]), "+")
    res = obstructions.nonorientable_obstruction(legs, G, 14)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 14 nodes; 1 subset(s) found",
    )


def test_obstructed_needs_the_complete_search(monkeypatch):
    statuses = searched_status(monkeypatch)
    tree, G = searched(LensSum([(5, 1), (5, 1)]), "+")
    assert obstructions.double_subset_obstruction(tree, G).verdict == "obstructed"
    nodes = enumerate_subsets(tree).nodes
    assert obstructions.double_subset_obstruction(tree, G, nodes - 1).verdict == "inconclusive"
    assert statuses == ["complete", "exhausted"]


def rescan_row_order(G) -> list[int]:
    """The placement order found by rescanning every remaining vertex
    against every placed one at each step, in O(n^3)."""
    placed: list[int] = []
    remaining = set(range(len(G)))
    while remaining:
        best = max(
            remaining,
            key=lambda i: (sum(1 for j in placed if G[i][j] != 0), G[i][i], -i),
        )
        placed.append(best)
        remaining.remove(best)
    return placed


def test_row_order_matches_rescan():
    """The incremental neighbour counts give the rescan's order of the
    dense form, ties and all, on random forests and on plumbings."""
    rng = random.Random(17)
    trees = [p_chain(31), PINNED_NODES["seifert_5_5_3"][0], PINNED_NODES["pretzel_e0"][0]]
    for _ in range(200):
        n = rng.randint(1, 14)
        # few norms, so ties are common; sparse and bushy forests alike
        weights = [-rng.randint(1, 4) for _ in range(n)]
        density = rng.choice([0.3, 0.7, 1.0])
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < density]
        trees.append(forest(weights, edges))
    for tree in trees:
        assert _row_order(tree.weights, tree.neighbours) == rescan_row_order(dense(tree))


def scan_row_order(weights, neighbours) -> list[int]:
    """The placement order by a scan of the remaining set for the best
    vertex at each step, in O(n^2): the order the heap must reproduce."""
    n = len(weights)
    placed: list[int] = []
    neighbours_placed = [0] * n
    remaining = set(range(n))
    while remaining:
        best = max(remaining, key=lambda i: (neighbours_placed[i], weights[i], -i))
        placed.append(best)
        remaining.remove(best)
        for i in neighbours[best]:
            neighbours_placed[i] += 1
    return placed


def random_star(rng, legs: int, length: int) -> PlumbingTree:
    """A hub, vertex 0, with ``legs`` chains of 1 to ``length`` vertices."""
    weights, edges = [-rng.randint(1, 4)], []
    for _ in range(legs):
        start = len(weights)
        weights += [-rng.randint(1, 4) for _ in range(rng.randint(1, length))]
        edges += [(0, start)] + [(i, i + 1) for i in range(start, len(weights) - 1)]
    return forest(weights, edges)


def test_row_order_heap_matches_the_scan():
    """The lazy heap gives the scan's order, ties and all, on 300 random
    forests and 300 random stars; few norms, so ties are common."""
    rng = random.Random(21)
    trees = []
    for _ in range(300):
        n = rng.randint(1, 40)
        weights = [-rng.randint(1, 4) for _ in range(n)]
        density = rng.choice([0.3, 0.7, 1.0])
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < density]
        trees.append(forest(weights, edges))
        trees.append(random_star(rng, rng.randint(1, 9), rng.randint(1, 5)))
    for tree in trees:
        assert _row_order(tree.weights, tree.neighbours) == scan_row_order(
            tree.weights, tree.neighbours
        )


def frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_costs_no_recursion():
    tree = p_chain(61)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        res = enumerate_subsets(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert res.complete
    assert len(res.subsets) == 2
    for s in res.subsets:
        assert verify_factorization(s, dense(tree))


def reference_enumerate_subsets(
    tree: PlumbingTree,
    budget: int | None = None,
    until: Callable[[LatticeSubset], bool] | None = None,
) -> SubsetSearchResult:
    """The search as it ran before its forced-entry and zero-suffix cuts,
    kept as the reference those cuts are checked against: they may only
    remove subtrees that yield nothing."""
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
    # per prefix depth: column c equals column c-1 / column c is all zero
    same_as_prev = [[False] + [True] * (width - 1)]
    all_zero = [[True] * width]

    def candidates(depth: int):
        """Rows that fit the placed prefix at ``depth``, in search order.

        The node with prefix entries[:c] checks that no placed row's
        remaining inner product exceeds what Cauchy-Schwarz allows in
        the remaining columns, then tries the values of entry c that the
        symmetry cuts admit: the columns of the prefix stay weakly
        increasing in lexicographic order, and the topmost nonzero entry
        of a column is negative.
        """
        nonlocal nodes
        i = order[depth]
        # deficit[pos]: inner product still owed to placed row pos, -1 to a
        # neighbour of i and 0 to any other; the rows in ``live`` owe a nonzero amount
        live = {position[u] for u in tree.neighbours[i] if position[u] < depth}
        deficit = [-(pos in live) for pos in range(depth)]
        same, zero = same_as_prev[depth], all_zero[depth]
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
                    hi = 0 if zero[c] else cap
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
        for c in range(width - 1, -1, -1):
            acc[c] = acc[c + 1] + row[c] * row[c]
            if row[c]:
                support[c].append((pos, row[c]))
        suffix_sq.append(acc)
        same, zero = same_as_prev[-1], all_zero[-1]
        same_as_prev.append(
            [False] + [same[c] and row[c] == row[c - 1] for c in range(1, width)]
        )
        all_zero.append([zero[c] and not row[c] for c in range(width)])

    def pop() -> None:
        row = placed.pop()
        for c in range(width):
            if row[c]:
                support[c].pop()
        suffix_sq.pop()
        same_as_prev.pop()
        all_zero.pop()

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


def chain_or_star(rng, n) -> PlumbingTree:
    """A random chain, or a star: one hub, vertex 0, with the other
    vertices cut into legs."""
    weights = [-rng.randint(1, rng.choice([2, 3, 5])) for _ in range(n)]
    if rng.random() < 0.5:
        return chain(weights)
    return forest(weights, [(0 if i == 1 or rng.random() < 0.4 else i - 1, i) for i in range(1, n)])


def test_cuts_remove_only_subtrees_that_yield_nothing():
    """Against the search without its forced-entry and zero-suffix cuts,
    on every pinned tree and on 220 random chains and stars (160
    definite, 60 of corank one, n <= 10): ``until`` is handed the same
    subsets in the same order, the status is the same, and the cut
    search never visits more nodes."""
    rng = random.Random(7)
    want = {("negative_definite", 0): 160, ("negative_semidefinite", 1): 60}
    trees = [tree for tree, _, _ in PINNED_NODES.values()]
    while any(want.values()):
        tree = chain_or_star(rng, rng.randint(1, 10))
        if want.get(tree.definiteness):
            want[tree.definiteness] -= 1
            trees.append(tree)
    found = 0
    for tree in trees:
        seen, expected = [], []
        res = enumerate_subsets(tree, until=lambda s: seen.append(s) or False)
        ref = reference_enumerate_subsets(tree, until=lambda s: expected.append(s) or False)
        assert seen == expected
        assert res.status == ref.status == "complete"
        assert res.nodes <= ref.nodes
        found += bool(seen)
        if len(seen) > 1:  # both stop at the second subset they meet
            second = lambda s: s == seen[1]  # noqa: E731
            res, ref = enumerate_subsets(tree, until=second), reference_enumerate_subsets(tree, until=second)
            assert (res.status, res.subsets) == (ref.status, ref.subsets)
            assert res.status == "stopped" and res.nodes <= ref.nodes
    assert found >= 100
