import random
import sys
from math import isqrt

import pytest

from s4embed import obstructions
from s4embed.lattice import (
    LatticeSubset,
    _row_order,
    canonicalize_rows,
    enumerate_subsets,
)
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold
from s4embed.plumbing import lens_chains, plumbing_tree


def chain_matrix(weights, extra_edges=()):
    n = len(weights)
    Q = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        Q[i][i] = w
    for i in range(n - 1):
        Q[i][i + 1] = Q[i + 1][i] = 1
    for i, j in extra_edges:
        Q[i][j] = Q[j][i] = 1
    return Q


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
    """The form of lens(p,1) + lens(p,p-1): one vertex and a (p-1)-chain."""
    return lens_chains(LensSum([(p, 1), (p, p - 1)])).incidence_matrix()


def test_verify_factorization_cases():
    Q = [[-3, 0, 0], [0, -2, 1], [0, 1, -2]]
    A = [[1, 1, 1], [1, -1, 0], [0, 1, -1]]
    assert verify_factorization(A, Q)
    assert verify_factorization([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
    assert not verify_factorization([[1]], [[-4]])


def test_minus4_has_single_class():
    res = enumerate_subsets([[-4]])
    assert res.complete
    assert len(res.subsets) == 1
    assert abs(res.subsets[0].rows[0][0]) == 2


def test_l32_chain_has_no_subsets():
    res = enumerate_subsets(chain_matrix([-2, -2]))
    assert res.complete
    assert res.subsets == ()


def test_lens_sum_l31_l32_contains_standard_subset():
    Q = [[-3, 0, 0], [0, -2, 1], [0, 1, -2]]
    res = enumerate_subsets(Q)
    assert res.complete
    target = canonicalize_rows([[1, 1, 1], [1, -1, 0], [0, 1, -1]])
    assert target in {s.rows for s in res.subsets}
    for s in res.subsets:
        assert verify_factorization(s, Q)


def test_rectangular_rank_one():
    res = enumerate_subsets([[-1, 1], [1, -1]], mode="rectangular")
    assert res.complete
    assert len(res.subsets) == 1
    rows = res.subsets[0].rows
    assert sorted(abs(r[0]) for r in rows) == [1, 1]
    assert rows[0][0] * rows[1][0] == -1


def test_mode_validation():
    with pytest.raises(ValueError):
        enumerate_subsets([[1]])
    with pytest.raises(ValueError):
        enumerate_subsets([[-2, 1], [1, -2]], mode="rectangular")


def test_budget_exhaustion_reported():
    Q = chain_matrix([-2] * 8)
    res = enumerate_subsets(Q, budget=5)
    assert res.status == "exhausted"


def test_no_pair_related_by_signed_permutation():
    Q = [[-3, 0, 0], [0, -2, 1], [0, 1, -2]]
    res = enumerate_subsets(Q)
    seen = set()
    for s in res.subsets:
        key = canonicalize_rows(s.rows)
        assert key == s.rows  # already canonical
        assert key not in seen
        seen.add(key)


def random_negative_definite(rng, n, max_diag):
    """Random symmetric negative definite Q with |diagonal| <= max_diag."""
    from s4embed.intlinalg import definiteness, signature_triple
    from test_intlinalg import sparse

    while True:
        Q = [[0] * n for _ in range(n)]
        for i in range(n):
            Q[i][i] = -rng.randint(1, max_diag)
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([0, 0, 0, 1, 1, -1, 2, -2])
                Q[i][j] = Q[j][i] = v
        if definiteness(signature_triple(*sparse(Q)))[0] == "negative_definite":
            return Q


def test_oracle_equivalence_randomised():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 4)
        Q = random_negative_definite(rng, n, 6)
        fast = enumerate_subsets(Q)
        assert fast.complete
        slow = naive_enumerate_subsets(Q)
        assert {s.rows for s in fast.subsets} == {s.rows for s in slow}


def test_rectangular_columns_span_full_rank():
    from s4embed.intlinalg import smith_normal_form

    tree = plumbing_tree(PretzelCover([2, -2, 2, -2]))
    Q = tree.incidence_matrix()
    res = enumerate_subsets(Q, mode="rectangular")
    assert res.complete
    assert res.subsets, "the e=0 pretzel cover plumbing factors"
    for s in res.subsets:
        width = len(s.rows[0])
        _, D, _ = smith_normal_form([list(r) for r in s.rows])
        rank = sum(1 for i in range(min(len(D), width)) if D[i][i] != 0)
        assert rank == width


def test_lens_chain_subsets_verify():
    for p, q in [(9, 2), (8, 3), (12, 5), (13, 5)]:
        Q = lens_chains(LensSum([(p, q)])).incidence_matrix()
        res = enumerate_subsets(Q)
        assert res.complete
        for s in res.subsets:
            assert verify_factorization(s, Q)


LENS_21 = lens_chains(LensSum([(21, 8), (21, 13)]))

# Node counts of the search, pinned so that a change to how the search
# runs cannot silently change the tree it visits (and so what a budget
# means).  The smallest budget at which the search completes is its node
# count.
PINNED_NODES = {
    "chain8": (chain_matrix([-2] * 8), "square", 203, 0),
    "diag3_chain2": ([[-3, 0, 0], [0, -2, 1], [0, 1, -2]], "square", 39, 2),
    "p_chain12": (p_chain(12), "square", 575, 2),
    "lens21": (LENS_21.incidence_matrix(), "square", 1041, 4),
    "seifert_5_5_3": (
        plumbing_tree(SeifertManifold(True, 0, 0, [(5, 2), (5, 3), (3, 1)])).incidence_matrix(),
        "square",
        332,
        1,
    ),
    "pretzel_e0": (
        plumbing_tree(PretzelCover([2, -2, 2, -2])).incidence_matrix(),
        "rectangular",
        132,
        3,
    ),
}
# Case ids stay as first pinned, so each case keeps its name across
# re-pins; the node count in an id is the count before the search
# settled a spent row at one node.
PINNED_IDS = [
    "Q0-square-230-0",
    "Q1-square-40-2",
    "Q2-square-640-2",
    "Q3-square-1092-4",
    "Q4-square-353-1",
    "Q5-rectangular-138-3",
]


@pytest.mark.parametrize("Q, mode, nodes, count", list(PINNED_NODES.values()), ids=PINNED_IDS)
def test_search_tree_is_pinned(Q, mode, nodes, count):
    res = enumerate_subsets(Q, mode)
    assert res.complete
    assert (res.nodes, len(res.subsets)) == (nodes, count)
    assert enumerate_subsets(Q, mode, budget=nodes) == res
    short = enumerate_subsets(Q, mode, budget=nodes - 1)
    assert short.status == "exhausted"
    assert short.nodes == nodes - 1


@pytest.mark.parametrize("Q, mode, nodes, count", list(PINNED_NODES.values()), ids=PINNED_IDS)
def test_until_sees_each_subset_once(Q, mode, nodes, count):
    """A callback that never accepts is handed every canonical subset
    once, in search order, and leaves the pinned tree as it is."""
    seen = []
    res = enumerate_subsets(Q, mode, until=lambda s: seen.append(s) or False)
    assert res == enumerate_subsets(Q, mode)
    assert (res.status, res.nodes) == ("complete", nodes)
    assert len(seen) == len(set(seen)) == count
    assert sorted(s.rows for s in seen) == [s.rows for s in res.subsets]


def test_until_stops_at_the_first_accepted_subset():
    Q = PINNED_NODES["lens21"][0]
    seen = []
    res = enumerate_subsets(Q, until=lambda s: seen.append(s) or len(seen) == 2)
    assert res.status == "stopped" and not res.complete
    assert res.nodes < PINNED_NODES["lens21"][2]
    assert set(res.subsets) == set(seen) and len(seen) == 2
    # the first subset the search meets ends a search that accepts any
    first = enumerate_subsets(Q, until=lambda s: True)
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
# splitting pair at node 462 of the 1041 of the complete search
FIRST_SPLIT, ALL_NODES = 462, PINNED_NODES["lens21"][2]


@pytest.mark.parametrize(
    "budget",
    [FIRST_SPLIT, FIRST_SPLIT + 1, ALL_NODES - 1, None],
    ids=["first_split", "first_split+1", "all_nodes-1", None],
)
def test_double_subset_passes_once_its_witness_is_reached(monkeypatch, budget):
    statuses = searched_status(monkeypatch)
    res = obstructions.double_subset_obstruction(LENS_21, budget)
    assert res.verdict == "pass"
    assert statuses == ["stopped"]


@pytest.mark.parametrize("budget", [0, 1, FIRST_SPLIT - 1], ids=[None, None, "first_split-1"])
def test_double_subset_is_inconclusive_before_its_witness(monkeypatch, budget):
    statuses = searched_status(monkeypatch)
    res = obstructions.double_subset_obstruction(LENS_21, budget)
    assert res.verdict == "inconclusive"
    assert statuses == ["exhausted"]


def test_inconclusive_notes_say_how_far_the_search_got():
    """An exhausted search reports the nodes it used and the subsets it
    found, in each of the three checks."""
    res = obstructions.double_subset_obstruction(LENS_21, FIRST_SPLIT - 1)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 461 nodes; 2 subset(s) found",
    )
    e0 = plumbing_tree(PretzelCover([2, -2, 2, -2]))
    res = obstructions.semidefinite_obstruction(e0, 10)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 10 nodes; 0 subset(s) found",
    )
    legs = plumbing_tree(SeifertManifold(False, 1, 0, [(3, 1), (3, -1)]))
    res = obstructions.nonorientable_obstruction(legs, 20)
    assert (res.verdict, res.notes) == (
        "inconclusive",
        "budget exhausted after 20 nodes; 1 subset(s) found",
    )


def test_obstructed_needs_the_complete_search(monkeypatch):
    statuses = searched_status(monkeypatch)
    tree = lens_chains(LensSum([(5, 1), (5, 1)]))
    assert obstructions.double_subset_obstruction(tree).verdict == "obstructed"
    nodes = enumerate_subsets(tree.incidence_matrix()).nodes
    assert obstructions.double_subset_obstruction(tree, nodes - 1).verdict == "inconclusive"
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
    """The incremental neighbour counts give the rescan's order, ties and
    all, on sparse and dense random forms and on plumbings."""
    rng = random.Random(17)
    forms = [p_chain(31), PINNED_NODES["seifert_5_5_3"][0], PINNED_NODES["pretzel_e0"][0]]
    for _ in range(200):
        n = rng.randint(1, 14)
        density = rng.choice([0.1, 0.3, 0.7])
        Q = [[0] * n for _ in range(n)]
        for i in range(n):
            Q[i][i] = -rng.randint(1, 4)  # few norms, so ties are common
            for j in range(i):
                if rng.random() < density:
                    Q[i][j] = Q[j][i] = rng.choice([-2, -1, 1, 2])
        forms.append(Q)
    for Q in forms:
        assert _row_order(Q) == rescan_row_order(Q)


def frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_costs_no_recursion():
    Q = p_chain(61)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        res = enumerate_subsets(Q)
    finally:
        sys.setrecursionlimit(limit)
    assert res.complete
    assert len(res.subsets) == 2
    for s in res.subsets:
        assert verify_factorization(s, Q)
