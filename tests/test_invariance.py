"""The verdict depends on the 3-manifold, not on how it is written down."""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from s4embed.classify import full_report
from s4embed.lattice import enumerate_subsets
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold, pretzel_to_seifert
from s4embed.plumbing import PlumbingTree, _chains
from test_census import mirror
from test_intlinalg import dense
from test_manifolds import pretzel_strand_forms

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

strand = st.integers(-5, 5).filter(bool)
fibre = st.tuples(st.integers(2, 5), st.integers(-4, 4)).filter(lambda f: math.gcd(*f) == 1)
summand = st.tuples(st.integers(2, 7), st.integers(1, 6)).filter(
    lambda s: s[1] < s[0] and math.gcd(*s) == 1
)


def statuses(forms) -> dict[str, str]:
    return {m.describe(): full_report(m).status for m in forms}


def shifted(fibres, r, shifts):
    """The same Seifert data with fibre i rewritten as (a, b + k_i a)."""
    return [(a, b + k * a) for (a, b), k in zip(fibres, shifts)], r + sum(shifts)


def rows(report) -> tuple:
    results = report.results.items()
    return report.status, report.reason, [(name, r.verdict, r.notes) for name, r in results]


@SETTINGS
@example(strands=[-3, -2, 1])  # S^3, once UNKNOWN in its Seifert form
@example(strands=[-4, -2, 2])  # once cited mubar_vanishing as a cover only
@given(strands=st.lists(strand, min_size=3, max_size=4))
def test_pretzel_seifert_mirror_and_rolfsen_forms_agree(strands):
    """Every form gets one status, and a cover gets its Seifert space's
    report: the same reason and the same rows in the same order."""
    cover = PretzelCover(strands)
    seif = pretzel_to_seifert(cover)
    assert rows(full_report(cover)) == rows(full_report(seif))
    reordered = [PretzelCover(strands[::-1]), PretzelCover(strands[1:] + strands[:1])]
    forms = [cover, *reordered, seif, mirror(cover), mirror(seif)]
    for source in (seif, mirror(seif)):
        forms += [PretzelCover(s) for s in pretzel_strand_forms(source)]
    found = statuses(forms)
    assert len(set(found.values())) == 1, found


@SETTINGS
@given(
    orientable=st.booleans(),
    r=st.integers(-2, 2),
    fibres=st.lists(fibre, max_size=3),
    data=st.data(),
)
def test_seifert_fibre_order_shifts_and_mirror_agree(orientable, r, fibres, data):
    genus = 0 if orientable else 1
    order = data.draw(st.permutations(fibres))
    shifts = data.draw(st.lists(st.integers(-1, 1), min_size=len(fibres), max_size=len(fibres)))
    m = SeifertManifold(orientable, genus, r, fibres)
    invariants, framing = shifted(order, r, shifts)
    rewritten = SeifertManifold(orientable, genus, framing, invariants)
    found = statuses([m, rewritten, mirror(m)])
    assert len(set(found.values())) == 1, found


@SETTINGS
@given(summands=st.lists(summand, min_size=1, max_size=3), data=st.data())
def test_lens_sum_order_presentation_and_mirror_agree(summands, data):
    order = data.draw(st.permutations(summands))
    ks = data.draw(st.lists(st.integers(-2, 2), min_size=len(order), max_size=len(order)))
    inverted = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    # L(p, q) = L(p, q + kp) = L(p, q^-1)
    rewritten = [
        (p, (pow(q, -1, p) if inv else q) + k * p) for (p, q), k, inv in zip(order, ks, inverted)
    ]
    m = LensSum(summands)
    found = statuses([m, LensSum(rewritten), mirror(m)])
    assert len(set(found.values())) == 1, found


CHAINS = [(p, q) for p in range(2, 8) for q in range(1, p) if math.gcd(p, q) == 1]


def relabelled(tree: PlumbingTree, perm: list[int]) -> PlumbingTree:
    """The plumbing of the dense form of ``tree`` with vertex v renamed
    perm[v]."""
    Q, n = dense(tree), tree.size
    R = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            R[perm[i]][perm[j]] = Q[i][j]
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if R[i][j])
    return PlumbingTree(tuple(R[i][i] for i in range(n)), edges)


def test_relabelled_plumbings_are_one_tree():
    """Reversing chains (q -> q^-1 mod p), permuting chains or legs, and
    shifting a chain end q by t p (with -t on the hub weight, as
    normalising a fibre does) gives the identical tree, on 160 random
    chain forests and 160 random one-hub stars.  The layout does not
    change what the search finds: the form with its vertices relabelled
    at random has as many subsets, with the same status."""
    rng = random.Random(21)
    searched = 0
    for trial in range(320):
        hub = -rng.randint(1, 4) if trial % 2 else None
        pairs = [rng.choice(CHAINS) for _ in range(rng.randint(1, 4))]
        tree = _chains(hub, [(q, p) for p, q in pairs])
        for _ in range(4):
            layout = rng.sample(pairs, len(pairs))
            if hub is None:
                layout = [(p, pow(q, -1, p) if rng.random() < 0.5 else q) for p, q in layout]
            shifts = [rng.randint(-2, 2) for _ in layout]
            ends = [(q + t * p, p) for (p, q), t in zip(layout, shifts)]
            w = None if hub is None else hub - sum(shifts)
            assert _chains(w, ends) == tree, (pairs, layout, hub)
        kind, corank = tree.definiteness
        if kind == "indefinite" or corank > 1 or tree.size > 9:
            continue
        copy = relabelled(tree, rng.sample(range(tree.size), tree.size))
        found, again = enumerate_subsets(tree), enumerate_subsets(copy)
        assert found.complete and again.complete
        assert len(found.subsets) == len(again.subsets), (pairs, hub)
        searched += 1
    assert searched >= 150
