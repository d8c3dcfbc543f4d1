import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from s4embed import intlinalg
from s4embed.classify import ManifoldContext, full_report
from s4embed.cli import invariants_json
from s4embed.intlinalg import cokernel
from s4embed.manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    chain_ends,
    chain_group,
    chain_length,
    euler_invariant,
    first_homology,
    lens_class,
    lens_mirror_class,
    neg_continued_fraction,
    normalize_seifert,
    pretzel_to_seifert,
    torsion_order,
)
from s4embed.plumbing import plumbing_tree
from test_intlinalg import assert_lift, dense, determinant


def eval_continued_fraction(seq) -> Fraction:
    """Value of [a1, ..., an]^- = a1 - 1/(a2 - 1/(...)), exactly."""
    value: Fraction | None = None
    for a in reversed(list(seq)):
        if value is None:
            value = Fraction(a)
        else:
            if value == 0:
                raise ZeroDivisionError("division by zero in tail")
            value = a - 1 / value
    if value is None:
        raise ValueError("empty continued fraction")
    return value


def test_neg_continued_fraction_values():
    assert neg_continued_fraction(3, 1) == (3,)
    assert neg_continued_fraction(12, 5) == (3, 2, 3)
    assert neg_continued_fraction(7, 4) == (2, 4)


def test_chain_length_is_the_length_of_the_expansion():
    """chain_length counts the entries of neg_continued_fraction without
    listing them, so it also sizes a chain of 10^2200 vertices."""
    for p in range(2, 200):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert chain_length(p, q) == len(neg_continued_fraction(p, q)), (p, q)
    P = 10**2200 + 1
    assert (chain_length(P, P - 1), chain_length(P, 1)) == (P - 1, 1)


def test_neg_continued_fraction_rejects():
    with pytest.raises(ValueError):
        neg_continued_fraction(4, 2)
    with pytest.raises(ValueError):
        neg_continued_fraction(3, 5)


def test_eval_continued_fraction():
    assert eval_continued_fraction([2, -3, -2]) == Fraction(12, 5)
    assert eval_continued_fraction([3, 2, 3]) == Fraction(12, 5)
    assert eval_continued_fraction([5]) == Fraction(5)


def test_eval_continued_fraction_zero_tail():
    with pytest.raises(ZeroDivisionError):
        eval_continued_fraction([2, 1, 1])


def test_continued_fraction_round_trip():
    from math import gcd

    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) == 1:
                seq = neg_continued_fraction(p, q)
                assert all(a >= 2 for a in seq)
                assert eval_continued_fraction(seq) == Fraction(p, q)


def test_euler_invariant_examples():
    y = SeifertManifold(True, 0, 0, [(3, 1), (3, -1), (3, 1)])
    assert euler_invariant(y) == Fraction(1, 3)
    y2 = SeifertManifold(True, 0, 0, [(2, 1), (2, -1), (3, 1), (3, -1)])
    assert euler_invariant(y2) == 0
    y3 = SeifertManifold(True, 0, 1, [(4, 1), (4, 1), (12, 5)])
    y3b = SeifertManifold(True, 0, 0, [(4, 1), (4, 1), (12, -7)])
    assert euler_invariant(y3) == Fraction(-1, 12)
    assert euler_invariant(y3) == euler_invariant(y3b)


def test_normalize_preserves_euler():
    y = SeifertManifold(True, 0, 0, [(4, 1), (4, 1), (12, -7)])
    n = normalize_seifert(y)
    assert euler_invariant(n) == euler_invariant(y)
    assert all(a > -b > 0 for a, b in n.invariants)

    y2 = SeifertManifold(True, 0, 0, [(3, -1)])
    assert normalize_seifert(y2) == y2

    y3 = SeifertManifold(True, 0, 0, [(3, 4)])
    n3 = normalize_seifert(y3)
    assert euler_invariant(n3) == euler_invariant(y3)
    assert n3.invariants == ((3, -2),)
    assert n3.r == -2


def test_lens_classification_helpers():
    # L(7,2) = L(7,4) since 2*4 = 8 = 1 mod 7
    assert lens_class(7, 2) == lens_class(7, 4)
    assert lens_class(7, 2) != lens_class(7, 3)
    assert lens_mirror_class(7, 2) == lens_class(7, 5)


def test_lens_chains_weights():
    # chains in ascending order of their sequences: [2, 2] before [3]
    tree = plumbing_tree(LensSum([(3, 1), (3, 2)]))
    assert tree.weights == (-2, -2, -3)
    assert tree.edges == ((0, 1),)
    assert tree.definiteness == ("negative_definite", 0)


def test_seifert_star_shape():
    y = SeifertManifold(True, 0, 0, [(3, 1), (3, -1), (3, 1)])
    tree = plumbing_tree(y)
    # centre -2 with legs (-2,-2), (-2,-2), (-3)
    assert tree.weights[0] == -2
    assert sorted(tree.weights) == [-3, -2, -2, -2, -2, -2]
    # the hub, vertex 0, meets all three legs
    assert sum(1 for edge in tree.edges if 0 in edge) == 3
    assert tree.definiteness == ("negative_definite", 0)
    # its lift carries coker Q onto H_1(Y(3,-3,3)) = Z/3 + Z/3
    assert assert_lift(tree, first_homology(y)[1]).factors == (3, 3)


def test_plumbing_nonorientable_drops_centre():
    y = SeifertManifold(False, 1, 0, [(3, 1), (3, -1)])
    forest = plumbing_tree(y)
    star_like = plumbing_tree(SeifertManifold(True, 0, 0, [(3, 1), (3, -1)]))
    assert sorted(forest.weights) == sorted(star_like.weights[1:])
    # no hub: the two legs are separate chains
    assert len(forest.edges) == forest.size - 2
    assert forest.definiteness == ("negative_definite", 0)
    assert sorted(forest.weights) == [-3, -2, -2]


def test_plumbing_rejects_negative_euler_side():
    y = SeifertManifold(True, 0, 0, [(4, 1), (4, 1), (12, -7)])  # e < 0
    with pytest.raises(ValueError):
        plumbing_tree(y, "+")
    tree = plumbing_tree(y, "-")
    assert tree.definiteness == ("negative_definite", 0)


def test_semidefinite_star():
    y = pretzel_to_seifert(PretzelCover([2, -2, 2, -2]))
    tree = plumbing_tree(y)
    kind, corank = tree.definiteness
    assert kind == "negative_semidefinite" and corank == 1


def test_first_homology_lens():
    b1, torsion = first_homology(LensSum([(3, 1)]))
    assert (b1, torsion.factors) == (0, (3,))


def test_first_homology_pretzels():
    b1, torsion = first_homology(pretzel_to_seifert(PretzelCover([1, 2, 2, 2])))
    assert b1 == 0
    assert torsion.order == 20

    seif = pretzel_to_seifert(PretzelCover([3, -3, 3]))
    b1, torsion = first_homology(seif)
    assert b1 == 0
    assert torsion.order == 9
    assert assert_lift(plumbing_tree(seif), torsion).order == 9


def test_first_homology_agrees_with_star_determinant():
    """H_1 of a cover is the cokernel of its definite star, onto which
    the star's lift carries it (``assert_lift``); its order is |det Q|
    (the Bareiss oracle)."""
    for strands in [(2, -2, 2), (3, 5, -2), (5, -4, 3, 2), (2, 3, 5)]:
        cover = PretzelCover(strands)
        seif = pretzel_to_seifert(cover)
        b1, torsion = first_homology(seif)
        if euler_invariant(seif) != 0:
            side = "+" if euler_invariant(seif) > 0 else "-"
            tree = plumbing_tree(seif, side)
            assert_lift(tree, torsion)
            assert torsion.order == abs(determinant(dense(tree)))
            assert b1 == 0


def surgery_presentation(m: SeifertManifold) -> list[list[int]]:
    """H_1 over an orientable base from the surgery description, one
    relation per row: generators x_1..x_n (fibre meridians) and h (the
    central curve), relations a_i x_i + b_i h = 0 and sum x_i + r h = 0.
    The genus adds free summands only, and is left out."""
    n = len(m.invariants)
    rows = [[a * (i == j) for j in range(n)] + [b] for i, (a, b) in enumerate(m.invariants)]
    return rows + [[1] * n + [m.r]]


def test_first_homology_matches_the_surgery_presentation():
    """On 2,000 random spaces over S^2 and surfaces of genus 1 and 2, with
    0 to 5 fibres a <= 9 in any normalisation and r in [-4, 4], and on
    every e = 0 pair of fibres (a, b), (a, k a - b) with r = k, the
    chain-end presentation of ``first_homology`` gives the b_1 and the
    torsion factors of the surgery presentation."""
    rng = random.Random(28)
    spaces = []
    for _ in range(2000):
        fibres = []
        for _ in range(rng.randint(0, 5)):
            a = rng.randint(2, 9)
            fibres.append((a, rng.choice([b for b in range(-2 * a, 2 * a) if math.gcd(a, b) == 1])))
        spaces.append(SeifertManifold(True, rng.randint(0, 2), rng.randint(-4, 4), fibres))
    spaces += [
        SeifertManifold(True, g, k, [(a, b), (a, k * a - b)])
        for a in range(2, 10)
        for b in range(1, a)
        if math.gcd(a, b) == 1
        for k in (-1, 0, 1)
        for g in (0, 1)
    ]
    kinds = Counter()
    for m in spaces:
        free, G = cokernel(list(zip(*surgery_presentation(m))))  # relations as columns
        b1, torsion = first_homology(m)
        assert (b1, torsion.factors) == (free + 2 * m.genus, G.factors), m.describe()
        kinds[min(len(m.invariants), 3), euler_invariant(m) == 0] += 1
    assert all(kinds[n, False] >= 100 for n in range(4))
    assert kinds[0, True] >= 30 and kinds[2, True] == 6 * 27


def test_closed_form_factors_match_the_smith_form():
    """``chain_group`` reads its factors in closed form, and
    ``first_homology`` its torsion through it.  On 2,400 random inputs
    both give the factors and free rank of ``cokernel`` of the same
    relation rows, whose Smith form the group takes only when its
    generators are read:
    - spaces over S^2, O(1) and O(2) with 0 to 8 fibres, a drawn from a
      few orders up to about 10^20 and often repeated, half of them with
      e = 0 from fibres (a, b), (a, k a - b) beside a framing k, and
      every b shifted by a random multiple of a into r;
    - spaces with no fibres over O(g), with r = 0 and r != 0;
    - lens sums with repeated p, and the legs' groups over N(h), where
      the group is the sum of the Z/a;
    - 3,000 spaces over N(1), N(2) and N(3) with 0 to 5 fibres, a drawn
      as above, whose H_1 (``first_homology``) must match ``cokernel`` of
      ``crosscap_presentation``, its relations as columns."""
    rng = random.Random(43)

    def orders():
        pool = [rng.choice([2, 3, 4, 6, 8, 9, 12, 25, 10**rng.randint(2, 20) + rng.randint(0, 3)])
                for _ in range(3)]
        return lambda: rng.choice(pool) if rng.random() < 0.7 else rng.randint(2, 30)

    def coprime(a):
        b = rng.randint(1, a - 1)
        while math.gcd(a, b) != 1:
            b = rng.randint(1, a - 1)
        return b

    inputs = []
    for i in range(1200):
        order, r, fibres = orders(), 0 if i % 2 else rng.randint(-4, 4), []
        for _ in range(rng.randint(0, 4) if i % 2 else rng.randint(0, 8)):
            a = order()
            if i % 2:  # a complementary pair adds k to e, and r takes it off
                b, k = coprime(a), rng.randint(-1, 1)
                fibres += [(a, b), (a, k * a - b)]
                r += k
            else:
                fibres.append((a, coprime(a) - a))
        shifts = [rng.randint(-2, 2) for _ in fibres]
        fibres = [(a, b + t * a) for (a, b), t in zip(fibres, shifts)]
        inputs.append(SeifertManifold(True, rng.randint(0, 2), r + sum(shifts), fibres))
        inputs.append(SeifertManifold(True, rng.randint(0, 3), rng.choice([0, 0, -3, 5]), []))
    zero = 0
    for m in inputs:
        free, G = chain_group(*chain_ends(m))
        H_free, H = cokernel(G.relations())
        assert (G.factors, free) == (H.factors, H_free), m.describe()
        b1, torsion = first_homology(m)
        assert (b1, torsion.factors) == (H_free + 2 * m.genus, H.factors)
        assert len(torsion.generators) == len(torsion.factors)
        zero += m.invariants != () and euler_invariant(m) == 0
    assert zero >= 400
    for _ in range(200):
        order = orders()
        sizes = [order() for _ in range(rng.randint(1, 8))]
        fibres = [(a, rng.choice([1, -1])) for a in sizes]
        sums = [LensSum((p, coprime(p)) for p in sizes), SeifertManifold(False, 1, 0, fibres)]
        for G in (first_homology(sums[0])[1], ManifoldContext(sums[1]).coker):
            assert G.factors == cokernel(G.relations())[1].factors == tuple(
                d for d in intlinalg.cyclic_sum_factors(sizes) if d >= 2
            )
    kinds, huge = Counter(), 0
    for _ in range(3000):
        order = orders()
        sizes = [order() for _ in range(rng.randint(0, 5))]
        fibres = [(a, coprime(a) + rng.randint(-2, 2) * a) for a in sizes]
        m = SeifertManifold(False, rng.randint(1, 3), rng.randint(-4, 4), fibres)
        free, G = cokernel(list(zip(*crosscap_presentation(m))))
        b1, torsion = first_homology(m)
        assert (b1, torsion.factors) == (free, G.factors), m.describe()
        # the parity that decides the 2-part: of the fibres of top 2-part,
        # or with no even a of r + sum b
        twos = [a & -a for a in sizes]
        high = max(twos, default=1)
        parity = twos.count(high) if high > 1 else m.r + sum(b for _, b in fibres)
        kinds[high > 1, parity % 2] += 1
        huge += any(a > 10**19 for a in sizes)
    assert min(kinds.values()) >= 300 and len(kinds) == 4 and huge >= 30, (kinds, huge)


def pretzel_strand_forms(m: SeifertManifold) -> tuple[tuple[int, ...], ...]:
    """All pretzel strand multisets realising this Seifert manifold, by
    walking the 2^n strand choices of its n fibres.

    Needs base S^2 and every fibre rewritable as (a, +-1); leftover
    central framing may be absorbed by +-1 strands as long as the total
    strand count lands in {3, 4}.  Distinct forms are related by Rolfsen
    twists, so they present diffeomorphic covers of different links.
    Every fibre becomes a strand, so a space with more than 4 fibres has
    no form.  The oracle for ``ManifoldContext.link_components`` and for
    family membership by keys.
    """
    if not m.base_orientable or m.genus != 0 or len(m.invariants) > 4:
        return ()
    norm = normalize_seifert(m)
    # normalised fibre (a, b): b = -1 came from strand -a (no framing
    # shift), b = 1 - a from strand +a (one framing shift); both apply
    # when a = 2
    choices = []
    for a, b in norm.invariants:
        opts = []
        if b == -1:
            opts.append((-a, 0))
        if b == 1 - a:
            opts.append((a, 1))
        if not opts:
            return ()
        choices.append(opts)

    n = len(choices)
    forms = set()
    for mask in range(1 << n):
        strands = []
        shifts = 0
        ok = True
        for i, opts in enumerate(choices):
            want = (mask >> i) & 1
            if want >= len(opts):
                ok = False
                break
            strand, cost = opts[want]
            strands.append(strand)
            shifts += cost
        if not ok:
            continue
        # unnormalised pretzel framing: r0 = norm.r + shifts, and +-1
        # strands must supply it: (#(-1) - #(+1)) == r0
        r0 = norm.r + shifts
        for extra in range(0, 5 - n):
            m_minus, rem = divmod(extra + r0, 2)
            if rem or not 0 <= m_minus <= extra:
                continue
            m_plus = extra - m_minus
            total = strands + [1] * m_plus + [-1] * m_minus
            if 3 <= len(total) <= 4:
                forms.add(tuple(sorted(total, reverse=True)))
    return tuple(sorted(forms))


def test_pretzel_seifert_round_trip():
    cover = PretzelCover([1, -4, -4, -4])
    seif = pretzel_to_seifert(cover)
    assert seif.r == -1
    assert seif.invariants == ((4, -1), (4, -1), (4, -1))
    assert euler_invariant(seif) == Fraction(1) - Fraction(3, 4)
    assert cover.strands in pretzel_strand_forms(seif)

    cover2 = PretzelCover([3, -3, 3])
    assert cover2.strands == (3, 3, -3)
    assert cover2.strands in pretzel_strand_forms(pretzel_to_seifert(cover2))


def test_pretzel_conversion_preserves_invariants():
    # e(Y(a_1, ..., a_n)) = sum 1/a_i, +-1 strands included
    for strands in [(2, -2, 3, -3), (3, -5, -8), (1, -2, 2, -2), (2, 3, 7)]:
        cover = PretzelCover(strands)
        expected = sum(Fraction(1, a) for a in strands)
        assert euler_invariant(pretzel_to_seifert(cover)) == expected


def spin_count(m) -> int:
    """|H^1(Y; Z/2)| as the report prints it."""
    return invariants_json(full_report(m))["spin_count"]


def test_spin_structure_count_examples():
    assert spin_count(LensSum([(3, 1)])) == 1
    assert spin_count(LensSum([(4, 1)])) == 2
    assert spin_count(PretzelCover([2, -2, 2, -2])) == 8


def test_nonorientable_homology():
    # base RP^2, no fibres, r = 0: H_1 = Z/2 + Z/2
    y = SeifertManifold(False, 1, 0, [])
    b1, torsion = first_homology(y)
    assert b1 == 0
    assert torsion.factors == (2, 2)


def crosscap_presentation(m: SeifertManifold) -> list[list[int]]:
    """H_1 over a base of k crosscaps from the surgery description, one
    relation per row and one column per crosscap: generators v_1..v_k,
    x_1..x_n and h, relations a_i x_i + b_i h = 0, 2h = 0 and
    2(v_1 + ... + v_k) + sum x_i + r h = 0."""
    k, n = m.genus, len(m.invariants)
    rows = [[0] * k + [a * (i == j) for j in range(n)] + [b] for i, (a, b) in enumerate(m.invariants)]
    return rows + [[0] * (k + n) + [2], [2] * k + [1] * n + [m.r]]


def test_nonorientable_homology_matches_the_crosscap_presentation():
    """Over N(k) for k = 1..6, r in [-4, 4] and 0 to 4 random fibres,
    ``first_homology``, presented on u = v_1 + ... + v_k and adding k - 1
    free summands, gives the b_1 and the torsion factors of the
    presentation with one column per crosscap.  Over N(14000) it does so
    at once, with no (k + n + 1)-square matrix."""
    rng = random.Random(33)
    for _ in range(1500):
        fibres = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(2, 9)
            fibres.append((a, rng.choice([b for b in range(-2 * a, 2 * a) if math.gcd(a, b) == 1])))
        m = SeifertManifold(False, rng.randint(1, 6), rng.randint(-4, 4), fibres)
        free, G = cokernel(list(zip(*crosscap_presentation(m))))  # relations as columns
        b1, torsion = first_homology(m)
        assert (b1, torsion.factors) == (free, G.factors), m.describe()
    b1, torsion = first_homology(SeifertManifold(False, 14000, 0, [(2, 1)]))
    assert (b1, torsion.factors) == (13999, (8,))


def test_torsion_order_is_read_off_the_input():
    """On 3,000 random lens sums, Seifert spaces over orientable and
    non-orientable bases and pretzel covers, and on e = 0 spaces with
    one or two complementary pairs, ``torsion_order`` is the order of the
    torsion of ``first_homology``."""
    rng = random.Random(37)

    def fibres(most):
        out = []
        for _ in range(rng.randint(0, most)):
            a = rng.randint(2, 12)
            out.append((a, rng.choice([b for b in range(-2 * a, 2 * a) if math.gcd(a, b) == 1])))
        return out

    strands = [x for x in range(-7, 8) if x]
    inputs = []
    for _ in range(750):
        inputs += [
            LensSum(fibres(3)),
            SeifertManifold(True, rng.randint(0, 2), rng.randint(-4, 4), fibres(5)),
            SeifertManifold(False, rng.randint(1, 3), rng.randint(-4, 4), fibres(4)),
            PretzelCover([rng.choice(strands) for _ in range(rng.randint(3, 4))]),
        ]
    inputs += [
        SeifertManifold(True, g, k, [(a, b), (a, k * a - b), *extra])
        for a in range(2, 10)
        for b in range(1, a)
        if math.gcd(a, b) == 1
        for k in (-1, 0, 1)
        for g in (0, 1)
        for extra in ([], [(6, 1), (6, -1)], [(4, 1), (4, -1)])
    ]
    zero = 0
    for m in inputs:
        s = pretzel_to_seifert(m) if isinstance(m, PretzelCover) else m
        assert torsion_order(m) == first_homology(s)[1].order, m.describe()
        zero += not isinstance(m, LensSum) and s.base_orientable and euler_invariant(s) == 0
    assert zero >= 300


def test_genus_adds_free_rank():
    y = SeifertManifold(True, 2, -1, [(3, 1)])
    b1, torsion = first_homology(y)
    assert b1 == 4
