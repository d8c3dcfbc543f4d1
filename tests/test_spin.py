import itertools
import math

import pytest

from s4embed import intlinalg
from s4embed.classify import ManifoldContext, full_report
from s4embed.cli import invariants_json
from s4embed.manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    first_homology,
    neg_continued_fraction,
)
from s4embed.plumbing import PlumbingTree, plumbing_tree
from s4embed.spin import mu_bar, mubar_vanishing_threshold, spin_profile, wu_sets
from test_manifolds import pretzel_strand_forms


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
    element of H^1(Y; Z/2), in linear time, with no Smith form of any
    matrix."""
    from time import process_time

    def smith_normal_form(*args, **kwargs):
        raise AssertionError("Smith form taken")

    y = SeifertManifold(True, 0, 0, [(3, 1), (3, -1), (401, 400), (401, -400)])
    b1, torsion = first_homology(y)
    tree = plumbing_tree(y)
    assert tree.size == 405
    monkeypatch.setattr(intlinalg, "smith_normal_form", smith_normal_form)
    start = process_time()
    wu = wu_sets(tree)
    assert process_time() - start < 0.5
    assert len(wu) == 2 ** (b1 + sum(1 for d in torsion.factors if d % 2 == 0)) == 2


def test_mu_bar_examples():
    assert mu_bar(e8_tree(), (0,) * 8) == -8
    assert mu_bar(single_vertex(-2), (0,)) == -1
    assert mu_bar(single_vertex(-2), (1,)) == 1
    assert mu_bar(single_vertex(-3), (1,)) == 2


def pretzel_link_components(strands) -> int:
    """Component count of the pretzel link, by tracing its diagram: the
    oracle for ``ManifoldContext.link_components``.

    The two strands through each twist region swap ends iff the twist
    count is odd; tracing the resulting identifications around the
    diagram counts closed loops.
    """
    n = len(strands)
    # endpoints per region: (i, 'TL'|'TR'|'BL'|'BR'); arcs join TR_i-TL_{i+1}
    # and BR_i-BL_{i+1}; inside region i: odd twists TL-BR, TR-BL, even
    # twists TL-BL, TR-BR.
    joins: dict[tuple[int, str], tuple[int, str]] = {}

    def join(a, b):
        joins.setdefault(a, b)
        joins.setdefault(b, a)

    pair: dict[tuple[int, str], tuple[int, str]] = {}
    for i, a in enumerate(strands):
        if a % 2:
            pair[(i, "TL")] = (i, "BR")
            pair[(i, "BR")] = (i, "TL")
            pair[(i, "TR")] = (i, "BL")
            pair[(i, "BL")] = (i, "TR")
        else:
            pair[(i, "TL")] = (i, "BL")
            pair[(i, "BL")] = (i, "TL")
            pair[(i, "TR")] = (i, "BR")
            pair[(i, "BR")] = (i, "TR")
    for i in range(n):
        j = (i + 1) % n
        join((i, "TR"), (j, "TL"))
        join((i, "BR"), (j, "BL"))

    seen: set[tuple[int, str]] = set()
    count = 0
    for start in pair:
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            via_region = pair[cur]
            seen.add(via_region)
            cur = joins[via_region]
    return count


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
    for n in (3, 4):
        for strands in itertools.combinations_with_replacement(values, n):
            cover = PretzelCover(strands)
            k = ManifoldContext(cover).link_components
            assert invariants_json(full_report(cover))["spin_count"] == 2 ** (k - 1)


def link_components_disagree(m) -> str | None:
    """How the context's k differs from the diagram trace on the last
    strand form of ``m``, None without a form."""
    forms = pretzel_strand_forms(ManifoldContext(m).seifert)
    traced = pretzel_link_components(forms[-1]) if forms else None
    keyed = ManifoldContext(m).link_components
    return None if keyed == traced else f"key gives {keyed}, trace {traced}"


def test_link_components_from_the_key_match_the_trace():
    """Every 3- and 4-strand cover with |a_i| <= 7, and every Seifert
    space over S^2 with 3-4 fibres a <= 5 and r in [-2, 2]: k read off
    H_1 is the trace's on the last strand form, and None exactly when
    the key admits no form."""
    values = [x for x in range(-7, 8) if x]
    covers = [
        PretzelCover(s) for n in (3, 4) for s in itertools.combinations_with_replacement(values, n)
    ]
    fibres = [(a, b) for a in range(2, 6) for b in range(1 - a, a) if b and math.gcd(a, b) == 1]
    spaces = [
        SeifertManifold(True, 0, r, fs)
        for n in (3, 4)
        for fs in itertools.combinations_with_replacement(fibres, n)
        for r in range(-2, 3)
    ]
    assert len(covers) + len(spaces) == 38565
    found = {m.describe(): why for m in covers + spaces if (why := link_components_disagree(m))}
    assert found == {}


def mubar_certificate(cover: PretzelCover) -> dict:
    """mu_values, k and threshold of the report's mubar_vanishing check,
    which runs even where an earlier row refutes the cover."""
    return full_report(cover, certificates=True).results.get("mubar_vanishing").certificates[0]


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
    assert spin_profile(single_vertex(-2), "+", 2) == (-1, 1)
    assert spin_profile(single_vertex(-2), "-", 2) == (-1, 1)
    assert spin_profile(single_vertex(-3), "-", 1) == (-2,)
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
            t1 = plumbing_tree(LensSum([(p, q)]))
            t2 = plumbing_tree(LensSum([(p, q2)]))
            mv1 = sorted(mu_bar(t1, w) for w in wu_sets(t1))
            mv2 = sorted(mu_bar(t2, w) for w in wu_sets(t2))
            assert mv1 == mv2


def test_mu_bar_negates_with_orientation():
    for p, q in [(7, 2), (9, 4), (11, 3), (8, 3)]:
        t = plumbing_tree(LensSum([(p, q)]))
        tm = plumbing_tree(LensSum([(p, p - q)]))
        mv = sorted(mu_bar(t, w) for w in wu_sets(t))
        mvm = sorted(-mu_bar(tm, w) for w in wu_sets(tm))
        assert mv == mvm


def test_thresholds():
    assert [mubar_vanishing_threshold(k) for k in (1, 2, 3, 4, 5, 6)] == [1, 2, 3, 5, 7, 11]
