import math

import pytest

from s4embed import plumbing
from s4embed.classify import full_report
from s4embed.manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    first_homology,
    neg_continued_fraction,
)
from s4embed.plumbing import PlumbingTree, lens_chains, plumbing_tree
from s4embed.spin import (
    mu_bar,
    mubar_vanishing_threshold,
    pretzel_link_components,
    spin_profile,
    wu_sets,
)


def e8_tree():
    return PlumbingTree(
        weights=(-2,) * 8,
        edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)),
    )


def single_vertex(w):
    return PlumbingTree(weights=(w,), edges=())


def test_wu_sets_examples():
    assert wu_sets(single_vertex(-2)) == [(0,), (1,)]
    assert wu_sets(single_vertex(-3)) == [(1,)]
    assert wu_sets(e8_tree()) == [(0,) * 8]


def test_wu_sets_of_a_long_star_build_no_dense_form(monkeypatch):
    """The e = 0 star of seifert(S2; 0; (3,1),(3,-1),(401,400),(401,-400))
    has 405 vertices.  Its Wu sets come from the edges alone, one per
    element of H^1(Y; Z/2), in linear time."""
    from time import process_time

    def densify(*args):
        raise AssertionError("dense form built")

    monkeypatch.setattr(plumbing, "_densify", densify)
    y = SeifertManifold(True, 0, 0, [(3, 1), (3, -1), (401, 400), (401, -400)])
    tree = plumbing_tree(y)
    assert tree.size == 405
    start = process_time()
    wu = wu_sets(tree)
    assert process_time() - start < 0.5
    b1, torsion = first_homology(y)
    assert len(wu) == 2 ** (b1 + sum(1 for d in torsion.factors if d % 2 == 0)) == 2


def test_mu_bar_examples():
    assert mu_bar(e8_tree(), (0,) * 8) == -8
    assert mu_bar(single_vertex(-2), (0,)) == -1
    assert mu_bar(single_vertex(-2), (1,)) == 1
    assert mu_bar(single_vertex(-3), (1,)) == 2


def test_pretzel_link_components():
    assert pretzel_link_components((2, 3, 7)) == 1
    assert pretzel_link_components((3, 3, 3)) == 1
    assert pretzel_link_components((2, 2, 3)) == 2
    assert pretzel_link_components((2, 2, 2)) == 3
    assert pretzel_link_components((3, 5, 7, 9)) == 2
    assert pretzel_link_components((2, 3, 3, 3)) == 1
    assert pretzel_link_components((3, 2, 2, 2)) == 3
    assert pretzel_link_components((2, 2, 2, 2)) == 4


def test_component_count_matches_spin_count():
    values = [-5, -4, -3, -2, 2, 3, 4, 5]
    import itertools

    for n in (3, 4):
        for strands in itertools.combinations_with_replacement(values, n):
            cover = PretzelCover(strands)
            k = pretzel_link_components(cover.strands)
            assert full_report(cover).invariants["spin_count"] == 2 ** (k - 1)


def mubar_certificate(cover: PretzelCover) -> dict:
    """mu_values, k and threshold of the report's mubar_vanishing check."""
    return full_report(cover).result("mubar_vanishing").certificates[0]


def test_spin_profile_even_pairs():
    """Y(a,-a,b,-b) with a,b even: eight spin structures, four vanishing
    mu-bar, the others +-(a+b) and +-(a-b)."""
    for a, b in [(2, 4), (2, 6), (4, 6)]:
        mu_values = mubar_certificate(PretzelCover([a, -a, b, -b]))["mu_values"]
        assert len(mu_values) == 8
        assert mu_values == sorted([0, 0, 0, 0, a + b, -(a + b), a - b, -(a - b)])


def test_spin_profile_a222():
    """Y(a,2,2,2) with a odd: three mu-bar values equal sign(a) - a."""
    for a in (3, 5, -3):
        mu_values = mubar_certificate(PretzelCover([a, 2, 2, 2]))["mu_values"]
        assert len(mu_values) == 4
        target = (1 if a > 0 else -1) - a
        assert mu_values.count(target) >= 3


def test_spin_profile_y_aaa_same():
    cert = mubar_certificate(PretzelCover([3, -3, 3]))
    assert cert["mu_values"] == [0]
    assert cert["k"] == 1


def test_spin_profile_y2222():
    mu_values = mubar_certificate(PretzelCover([2, -2, 2, -2]))["mu_values"]
    assert len(mu_values) == 8
    assert mu_values.count(0) == 6  # 0,0,0,0 and +-(a-b)=0,0 with a=b=2


def test_spin_profile_rejects_wrong_component_count():
    """Two Wu sets on a (-2) vertex mean k = 2; any other k is an error."""
    assert spin_profile(single_vertex(-2), "+", 2).mu_values == (-1, 1)
    assert spin_profile(single_vertex(-2), "-", 2).mu_values == (-1, 1)
    assert spin_profile(single_vertex(-3), "-", 1).mu_values == (-2,)
    with pytest.raises(ArithmeticError):
        spin_profile(single_vertex(-2), "+", 1)
    with pytest.raises(ArithmeticError):
        spin_profile(single_vertex(-3), "+", 3)


def test_mu_bar_stable_across_lens_presentations():
    """The same oriented lens space from either continued-fraction chain
    (q versus its inverse) produces the same mu-bar multiset."""
    for p in range(2, 31):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            q2 = pow(q, -1, p)
            t1 = lens_chains(LensSum([(p, q)]))
            t2 = lens_chains(LensSum([(p, q2)]))
            mv1 = sorted(mu_bar(t1, w) for w in wu_sets(t1))
            mv2 = sorted(mu_bar(t2, w) for w in wu_sets(t2))
            assert mv1 == mv2


def test_mu_bar_negates_with_orientation():
    for p, q in [(7, 2), (9, 4), (11, 3), (8, 3)]:
        t = lens_chains(LensSum([(p, q)]))
        tm = lens_chains(LensSum([(p, p - q)]))
        mv = sorted(mu_bar(t, w) for w in wu_sets(t))
        mvm = sorted(-mu_bar(tm, w) for w in wu_sets(tm))
        assert mv == mvm


def test_thresholds():
    assert [mubar_vanishing_threshold(k) for k in (1, 2, 3, 4)] == [1, 2, 3, 5]
