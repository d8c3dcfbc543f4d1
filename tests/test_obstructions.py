import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from s4embed import intlinalg, obstructions
from s4embed.classify import (
    LENS_SUM,
    ORIENTABLE,
    ORIENTABLE_E0,
    ManifoldContext,
    complementary_matched,
    even_fibre_clause,
    full_report,
)
from s4embed.cli import parse_manifold
from s4embed.intlinalg import cokernel, direct_sum_test, doubled_factors
from s4embed.lattice import LatticeSubset, enumerate_subsets
from s4embed.manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    chain_ends,
    euler_invariant,
    first_homology,
    pretzel_to_seifert,
)
from s4embed.obstructions import (
    blown_up_chain,
    char_vector_criterion,
    double_subset_obstruction,
    linking_form,
    nonhyperbolic_part,
    nonorientable_obstruction,
    odd_linking_factor,
    semidefinite_obstruction,
    subset_column_subgroup,
)
from s4embed.plumbing import PlumbingTree, plumbing_tree
from test_census import sweep_s5, sweep_s7
from test_cli import result_json
from test_golden import corpus_inputs
from test_intlinalg import (
    assert_lift,
    dense,
    determinant,
    random_definite_tree,
    random_searched_space,
    rational_solve,
    searched,
)
from test_lattice import verify_factorization


def lens_searched(*summands):
    """The '+' tree of a lens sum and its report's group, H_1."""
    return searched(LensSum(list(summands)), "+")


def bare(tree: PlumbingTree) -> tuple[PlumbingTree, intlinalg.FiniteAbelianGroup]:
    """The tree with no lift, and the dense Smith form's group of its form."""
    return PlumbingTree(tree.weights, tree.edges), cokernel(dense(tree))[1]


def test_double_subset_l31_l32_passes():
    res = double_subset_obstruction(*lens_searched((3, 1), (3, 2)))
    assert res.verdict == "pass"
    (A1, A2), (H1, H2) = res.certificates
    assert H1.order == H2.order == 3
    assert H1.basis != H2.basis


def test_double_subset_l21_l21_obstructed():
    res = double_subset_obstruction(*lens_searched((2, 1), (2, 1)))
    assert res.verdict == "obstructed"


def test_double_subset_identity_passes():
    res = double_subset_obstruction(*bare(PlumbingTree((-1, -1), ())))
    assert res.verdict == "pass"
    A1, A2 = res.certificates[0]
    assert A1 is A2  # trivial cokernel permits a repeated factorisation


def test_double_subset_nonsquare_order_shortcut():
    res = double_subset_obstruction(*lens_searched((3, 1)))
    assert res.verdict == "obstructed"
    assert "perfect square" in res.notes


@pytest.mark.parametrize(
    "factors, paired",
    [((9,), False), ((2, 8), False), ((3, 3, 9), False), ((), True), ((3, 3), True),
     ((2, 2, 4, 4), True)],
)
def test_pairs_up(factors, paired):
    assert obstructions.pairs_up(factors) is paired


def counted_searches(monkeypatch) -> list:
    """The lattice searches the obstructions start from here on."""
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    search = obstructions.enumerate_subsets
    monkeypatch.setattr(obstructions, "enumerate_subsets", counted)
    return searches


def test_unpaired_cokernel_is_refuted_with_no_search(monkeypatch):
    """The star of 18 legs (2,1) has coker Q = (Z/2)^16 + Z/36, of square
    order 2^18 * 9.  Its 17 factors do not pair up, so the check is
    refuted with no lattice search, where the search would exhaust its
    budget of 10^7 nodes and end inconclusive.  The full report cites the
    torsion row, which reads the same factors; the check is run alone."""
    searches = counted_searches(monkeypatch)
    y = SeifertManifold(True, 0, 0, [(2, 1)] * 18)
    report = full_report(y, only=["double_subset"])
    assert (report.status, report.reason) == ("OBSTRUCTED", "obstruction:double_subset")
    notes = report.results.get("double_subset").notes
    assert notes.endswith("is not of the form H + H, so no splitting pair exists")
    assert searches == []


def test_double_subset_budget_inconclusive():
    res = double_subset_obstruction(*lens_searched((9, 2), (9, 7)), budget=3)
    assert res.verdict == "inconclusive"
    assert res.notes == "budget exhausted after 3 nodes; 0 subset(s) found"


def test_semidefinite_examples():
    res = semidefinite_obstruction(PlumbingTree((-1, -1), ((0, 1),)))
    assert res.verdict == "pass"

    tree = plumbing_tree(pretzel_to_seifert(PretzelCover([2, -2, 2, -2])))
    res2 = semidefinite_obstruction(tree)
    assert res2.verdict == "pass"

    tree3 = plumbing_tree(pretzel_to_seifert(PretzelCover([4, -4, 2, -2])))
    res3 = semidefinite_obstruction(tree3)
    assert res3.verdict == "pass"  # its fibres pair into complements; mu-bar refutes it

    with pytest.raises(ValueError):
        semidefinite_obstruction(PlumbingTree((-2,), ()))


def random_complementary_spaces(rng: random.Random, count: int) -> list[SeifertManifold]:
    """Seifert spaces over O(g), g <= 2, with 2 to 4 complementary pairs
    (a, b), (a, -b) of a <= 13, each fibre shifted by a random multiple of
    a and the framing shifted to keep e = 0."""
    spaces = []
    for _ in range(count):
        fibres, r = [], 0
        for _ in range(rng.randint(2, 4)):
            a = rng.randint(2, 13)
            b = rng.choice([b for b in range(1, a) if math.gcd(a, b) == 1])
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            fibres += [(a, b + s * a), (a, -b + t * a)]
            r += s + t
        spaces.append(SeifertManifold(True, rng.randint(0, 2), r, fibres))
    return spaces


def test_complementary_pairs_build_a_semidefinite_witness():
    """Where complementary_pairs passes, either side's star factors as
    A A^t = -Q through n - 1 columns with no search, so neither
    semidefinite row can refute what complementary_pairs passes; this is
    why they are certificates of ``ORIENTABLE_E0``.  The rows that
    ``built_pair`` cites (``obstructions.blown_up_pairs`` with a hub) are
    checked against the dense form, and the search passes on the same
    tree, on both sides of every e = 0 space of the S7 sweep whose fibres
    pair up (S5's spaces have three fibres, so none does), of a seeded
    random sample and of the fibreless stars over O(1) and O(2), each its
    hub alone with one empty row.  The two sides' stars are equal trees."""
    s7 = [y for y in sweep_s7() if euler_invariant(y) == 0 and complementary_matched(y.invariants)]
    sample = random_complementary_spaces(random.Random(27), 150)
    assert len(s7) == 45
    for y in s7 + sample + [SeifertManifold(True, g, 0, []) for g in (1, 2)]:
        ctx = ManifoldContext(y)
        assert ctx.table is ORIENTABLE_E0 and ctx.euler == 0, y.describe()
        assert ctx.complementary, y.describe()
        built = ctx.built_pair
        assert built.verdict == "pass", y.describe()
        assert built.notes.startswith("-Q factors through one fewer column"), y.describe()
        (A,) = built.certificates
        assert ctx.tree("+") == ctx.tree("-"), y.describe()
        for side in "+-":
            tree = ctx.tree(side)
            assert len(A.rows[0]) == tree.size - 1, (y.describe(), side)
            assert verify_factorization(A, dense(tree)), (y.describe(), side)
            assert semidefinite_obstruction(tree).verdict == "pass", (y.describe(), side)


def test_e0_report_runs_its_searches_only_as_certificates(monkeypatch):
    """A default e = 0 report starts no lattice search.  Where the fibres
    pair into complements, the semidefinite rows pass with rows built
    with no search, even with certificates or a row named; where
    complementary_pairs refutes the space, a named row searches."""
    searches = counted_searches(monkeypatch)
    y = parse_manifold("seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))")
    report = full_report(y)
    assert list(report.results) == ["torsion_square", "complementary_pairs"]
    assert (searches, report.status) == ([], "EMBEDS")
    for kwargs in ({"certificates": True}, {"only": ["semidefinite_subset_mirror"]}):
        report = full_report(y, **kwargs)
        mirror = report.results.get("semidefinite_subset_mirror")
        assert (searches, mirror.verdict, report.status) == ([], "pass", "EMBEDS"), kwargs
    refuted = parse_manifold("pretzel(-2,3,6)")
    report = full_report(refuted)
    assert report.results.get("complementary_pairs").obstructed and searches == []
    report = full_report(refuted, only=["semidefinite_subset_mirror"])
    mirror = report.results.get("semidefinite_subset_mirror")
    assert (len(searches), mirror.verdict) == (1, "pass")


def test_nonorientable_examples():
    y = SeifertManifold(False, 1, 0, [(3, 1), (3, -1)])
    res = nonorientable_obstruction(*searched(y, "+"))
    assert res.verdict == "pass"

    y2 = SeifertManifold(False, 1, 0, [(3, 1), (2, 1)])
    res2 = nonorientable_obstruction(*searched(y2, "+"))
    assert res2.verdict == "obstructed"  # |coker| = 6 is not a square

    res3 = nonorientable_obstruction(*bare(PlumbingTree((), ())))
    assert res3.verdict == "pass"


def column_subgroup(A: LatticeSubset, Q):
    """H = im A / im Q inside coker Q."""
    return subset_column_subgroup(cokernel(Q)[1], A)


def column_classes(A: LatticeSubset, Q):
    """coker Q and the classes of A's columns in it."""
    _, G = cokernel(Q)
    return G, G.project_columns(A.rows)


def reference_char_vector_criterion(H: intlinalg.Subgroup) -> bool:
    """The correction-term filter on a built column subgroup H: the
    subset sums of its generators are collected until there are |H| of
    them, |H| read off H's Hermite basis."""
    G = H.parent
    if G.order % 2 == 0:
        raise ValueError("criterion needs an odd-order cokernel")
    reachable = {(0,) * len(G.factors)}
    for g in H.generators:
        if len(reachable) == H.order:
            break
        reachable |= {G.reduce([a + b for a, b in zip(r, g)]) for r in reachable}
    return len(reachable) == H.order


def test_char_vector_criterion_identity():
    A = LatticeSubset(((1, 0), (0, 1)))
    assert char_vector_criterion(*column_classes(A, [[-1, 0], [0, -1]]))


def test_char_vector_criterion_3_on_minus9():
    A = LatticeSubset(((3,),))
    assert not char_vector_criterion(*column_classes(A, [[-9]]))


def test_char_vector_criterion_rejects_even_order():
    A = LatticeSubset(((2,),))
    with pytest.raises(ValueError):
        char_vector_criterion(*column_classes(A, [[-4]]))


def test_char_vector_criterion_filters_lambda():
    """For the two-positive-strand family the filter keeps exactly the
    factorisations with the column pattern of -c = a or -c = b."""
    # Y(3, 5, -c) with c = 4a + 9b = 57: lambda = 2 subset exists but fails
    cover = PretzelCover([3, 5, -57])
    seif = pretzel_to_seifert(cover)
    from s4embed.manifolds import euler_invariant

    assert euler_invariant(seif) > 0
    tree, G = searched(seif, "+")
    res = enumerate_subsets(tree)
    assert res.complete and res.subsets
    G = assert_lift(tree, G)
    assert all(not char_vector_criterion(G, G.project_columns(s.rows)) for s in res.subsets)


def test_pass_certificates_verify():
    tree, G = lens_searched((3, 1), (3, 2))
    Q = dense(tree)
    res = double_subset_obstruction(tree, G)
    (A1, A2), (H1, H2) = res.certificates
    assert verify_factorization(A1, Q) and verify_factorization(A2, Q)
    assert H1.order * H2.order == 9


def test_obstructed_monotone_under_budget():
    tree, G = lens_searched((5, 1), (5, 1))
    small = double_subset_obstruction(tree, G, budget=10)
    big = double_subset_obstruction(tree, G, budget=10**7)
    assert big.verdict == "obstructed"
    assert small.verdict in ("inconclusive", "obstructed")


def doubled_space(rng) -> tuple[LensSum | SeifertManifold, tuple[str, ...]]:
    """A space built to search often: one or two lens summands, fibres or
    legs, then their mirrors or complements (a, -b), then now and then a
    random one more.  A lens sum (both sides), a star over S^2 with
    r in [-2, 2] (the definite side, e != 0), or a forest over N(1) (both
    sides), whose first partner is any fibre of the same a."""
    kind = rng.randrange(3)
    if kind == 0:
        half = rng.sample(LENS_SUMMANDS[:40], rng.randint(1, 2))
        extra = rng.sample(LENS_SUMMANDS[:40], int(rng.random() < 0.3))
        return LensSum([*half, *((p, p - q) for p, q in half), *extra]), ("+", "-")
    half = rng.sample(SMALL_FIBRES, rng.randint(1, 2))
    fibres = [*half, *((a, -b) for a, b in half), *rng.sample(SMALL_FIBRES, int(rng.random() < 0.5))]
    if kind == 2:
        fibres[len(half)] = rng.choice([f for f in SMALL_FIBRES if f[0] == half[0][0]])
        return SeifertManifold(False, 1, rng.randint(-2, 2), fibres), ("+", "-")
    m = SeifertManifold(True, 0, rng.randint(-2, 2), fibres)
    e = euler_invariant(m)
    return m, () if e == 0 else ("+" if e > 0 else "-",)


def test_searches_through_a_lift_match_the_bare_dense_form():
    """A search reads its group only through the tree's lift, so the
    double-subset and non-orientable checks give the same result,
    certificates included, on a built tree with its report's group as on
    the bare tree (lift ()) with the dense Smith form's group, over 600
    trees with n <= 10 (``doubled_space``).  The checks run without the
    report's refutations on H_1, so odd linking forms search too."""
    rng = random.Random(29)
    tally = Counter()
    while sum(tally.values()) < 600:
        m, sides = doubled_space(rng)
        check = nonorientable_obstruction
        if not isinstance(m, SeifertManifold) or m.base_orientable:
            check = double_subset_obstruction
        for side in sides:
            tree, G = searched(m, side)
            if tree.size > 10:
                continue
            built = check(tree, G, 10**5)
            plain = check(*bare(tree), 10**5)
            printed = [result_json(check.__name__, r, True) for r in (built, plain)]
            assert printed[0] == printed[1], (m.describe(), side)
            searched_ = built.verdict == "pass" or built.notes.startswith("complete search")
            tally[check.__name__, built.verdict, searched_] += 1
    checks = ("double_subset_obstruction", "nonorientable_obstruction")
    counts = [tally[c, v, True] for c in checks for v in ("pass", "obstructed")]
    assert min(counts) >= 15, tally


def test_char_vector_criterion_against_brute_force():
    """On random factorisations of forms of odd order > 1, the criterion
    holds iff the classes A x, x in {-1, +1}^n, fill the column subgroup
    (spanned here by closing the column classes under addition)."""
    rng = random.Random(5)
    outcomes = []
    while len(outcomes) < 150:
        n = rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = determinant(A)
        if det % 2 == 0 or abs(det) == 1:
            continue
        Q = [[-sum(a * b for a, b in zip(r, s)) for s in A] for r in A]
        _, G = cokernel(Q)
        H = column_subgroup(LatticeSubset(tuple(map(tuple, A))), Q)
        columns = G.project_columns(A)
        span, frontier = set(), [G.reduce([0] * len(G.factors))]
        while frontier:
            x = frontier.pop()
            if x not in span:
                span.add(x)
                frontier += [G.reduce([a + b for a, b in zip(x, g)]) for g in columns]
        signs = list(itertools.product((-1, 1), repeat=n))
        # the columns of A X, where the columns of X are every sign vector
        reachable = set(
            G.project_columns([[sum(a * e for a, e in zip(row, x)) for x in signs] for row in A])
        )
        assert reachable <= span and len(span) == H.order
        outcomes.append(char_vector_criterion(G, columns))
        assert outcomes[-1] == (reachable == span)
    assert 40 <= sum(outcomes) <= 110


def test_char_vector_criterion_on_column_classes_matches_the_built_subgroup():
    """The search's filter reads a subset's column classes and takes
    |H| = sqrt |G| with no Hermite basis.  On every subset the search
    finds for 150 seeded lens sums (two to four summands, odd p <= 11,
    with repeats, whose orders are squares) and 300 tries at a star of
    odd |G| (odd fibres and their complements over S^2, now and then
    one more, or ``random_definite_tree``), it gives the verdict the
    filter gives on the built column subgroup H, and H has order
    isqrt |G|.  The stars' 61 subsets all pass the filter."""
    rng = random.Random(50)
    summands = [(p, q) for p, q in LENS_SUMMANDS if p % 2 and p <= 11]
    fibres = [(a, b) for a, b in SMALL_FIBRES if a % 2]
    verdicts = Counter()
    for trial in range(450):
        if trial < 150:
            half = [rng.choice(summands) for _ in range(rng.randint(1, 2))]
            sum_ = [*half, *((p, rng.choice([q for r, q in summands if r == p])) for p, _ in half)]
            tree, G = lens_searched(*rng.sample(sum_, len(sum_)))
        elif trial % 2:
            half = rng.sample(fibres, rng.randint(1, 2))
            legs = [*half, *((a, -b) for a, b in half), *rng.sample(fibres, int(rng.random() < 0.5))]
            m = SeifertManifold(True, 0, rng.choice([-2, -1, 1, 2]), legs)
            tree, G = searched(m, "+" if euler_invariant(m) > 0 else "-")
        else:
            tree, G = bare(random_definite_tree(rng))
            if tree.size > 8 or tree.definiteness != ("negative_definite", 0):
                continue
        G = replace(G, lift=tree.lift)
        if G.order % 2 == 0:
            continue
        for s in enumerate_subsets(tree).subsets:
            columns = G.project_columns(s.rows)
            H = intlinalg.subgroup_from_generators(G, columns)
            assert H.order == math.isqrt(G.order), tree
            kept = char_vector_criterion(G, columns)
            assert kept == reference_char_vector_criterion(H), (tree, s)
            verdicts[trial < 150, kept] += 1
    assert verdicts[True, True] >= 50 and verdicts[True, False] >= 100, verdicts
    assert verdicts[False, True] + verdicts[False, False] >= 50, verdicts


def test_column_subgroups_are_lagrangians():
    """The pairing joins its column subgroups with no test of their type,
    and this is why that is sound.  On random lens forests, two or three
    summands with p < 12 where the second is often the first or its
    mirror, and on random negative definite stars (n <= 8), every subset
    the search returns spans a column subgroup H with |H|^2 = |G| on
    whose column classes the linking form x^t Q^-1 y, read off the dense
    form, is an integer; and every two distinct column subgroups whose
    sum is direct have equal factors, so both are halves of G.  About
    half the subgroups met are not halves."""
    rng = random.Random(25)
    summands = [(p, q) for p, q in LENS_SUMMANDS if p < 12]
    trees = subsets = halves = direct = 0
    while trees < 400:
        if trees % 2:
            tree, G = bare(random_definite_tree(rng))
            if tree.size > 8 or tree.definiteness != ("negative_definite", 0):
                continue
        else:
            sum_ = rng.sample(summands, rng.randint(2, 3))
            p, q = sum_[0]
            sum_[1] = rng.choice([sum_[1], (p, p - q), (p, q)])
            tree, G = lens_searched(*sum_)
            G = replace(G, lift=tree.lift)
        trees += 1
        Q = dense(tree)
        res = enumerate_subsets(tree)
        assert res.complete
        kept = {}
        for A in res.subsets:
            H = subset_column_subgroup(G, A)
            assert H.order * H.order == G.order
            columns = [list(col) for col in zip(*A.rows)]
            solved = rational_solve(Q, columns)  # Q^-1 y for each column y
            links = [sum(a * b for a, b in zip(x, z)) for x in columns for z in solved]
            assert all(t.denominator == 1 for t in links)
            kept.setdefault(H.basis, H)
            subsets += 1
            halves += doubled_factors(H.factors) == G.factors
        for H1, H2 in itertools.combinations(kept.values(), 2):
            if direct_sum_test(G, H1, H2)[0]:
                assert H1.factors == H2.factors
                direct += 1
    # 175 subsets, 86 of them halves (G isomorphic to H + H), 31 direct pairs
    assert subsets >= 150 and 50 <= halves <= subsets - 50 and direct >= 25


def test_nine_leg_star_joins_same_type_pairs_only(monkeypatch):
    """seifert(S2; 4; (2,1) x 9) has coker Q = (Z/2)^8, whose factors pair
    up and whose linking form is even, so its double-subset check searches
    and pairs, and passes: 5,480 joins before the first splitting pair,
    the count the search met before the linking form was read.  Every
    usable subgroup is joined, whatever its type, but each is a
    Lagrangian of order 16, and every subgroup of order 16 in (Z/2)^8 is
    (Z/2)^4, so every join is of two halves of one type.  Lagrangians
    that are not halves, such as 3G = (Z/3)^2 in G = Z/9 + Z/9 of
    L(9,5) # L(9,5), are met by the lens-sum oracle below."""
    joins = []

    def counted(G, H1, H2):
        joins.append(doubled_factors(H1.factors) == doubled_factors(H2.factors) == G.factors)
        return direct_sum_test(G, H1, H2)

    direct_sum_test = obstructions.direct_sum_test
    monkeypatch.setattr(obstructions, "direct_sum_test", counted)
    y = SeifertManifold(True, 0, 4, [(2, 1)] * 9)
    found = full_report(y).results.get("double_subset")
    assert (found.verdict, found.notes) == ("pass", "cokernel splits as H + H")
    assert len(joins) == 5480 and all(joins)


def test_six_summand_sum_is_refuted_by_its_linking_form(monkeypatch):
    """coker Q of this sum is Z/8 + Z/8 + Z/168 + Z/168, whose factors
    pair up, but its summands with p = 8 make the linking form odd: both
    double-subset rows are refuted with no search, where a complete search
    used to keep 204 subgroups and join 8,128 pairs."""
    searches = counted_searches(monkeypatch)
    m = LensSum([(8, 3), (8, 3), (8, 5), (8, 5), (21, 8), (21, 13)])
    report = full_report(m, certificates=True)
    notes = {name: (r.verdict, r.notes) for name, r in report.results.items()}
    odd = "the linking form of coker Q is odd on its factor Z/8, so no splitting pair exists"
    assert notes["double_subset"] == notes["double_subset_mirror"] == ("obstructed", odd)
    assert searches == []


def test_report_of_a_long_star_takes_only_small_smith_forms(monkeypatch):
    """pretzel(201,-201,201) plumbs a star of 402 vertices on three legs.
    Its cokernel is H_1, presented on the chain ends, and its search
    projects onto it through the star's lift, so every Smith form its
    report takes has at most legs + 1 rows, however long the legs are."""
    shapes = []

    def recorded(M, *args, **kwargs):
        shapes.append(len(M))
        return smith_normal_form(M, *args, **kwargs)

    smith_normal_form = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", recorded)
    cover = PretzelCover([201, -201, 201])
    tree = plumbing_tree(pretzel_to_seifert(cover))
    legs = sum(1 for edge in tree.edges if 0 in edge)
    assert (tree.size, legs) == (402, 3)
    full_report(cover)
    assert shapes and max(shapes) <= legs + 1


def test_searched_cokernel_takes_one_smith_form(monkeypatch):
    """pretzel(4,4,-4) has H_1 = Z/4 + Z/4 and an even linking form, read
    on the generators of H_1's one Smith form, so its double-subset check
    searches its definite tree.  The search's factors and its column
    projections come from that same Smith form, through the tree's lift:
    no second one is taken of the group."""
    calls = []

    def recorded(M, *args, **kwargs):
        calls.append(len(M))
        return smith_normal_form(M, *args, **kwargs)

    smith_normal_form = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", recorded)
    cover = PretzelCover([4, 4, -4])
    ctx = ManifoldContext(cover)
    assert odd_linking_factor(ctx.homology[1], ctx.linking_form) is None
    assert calls == [3]  # H_1 on the chain ends of three legs
    tree = ctx.tree(ctx.definite_side)
    G = replace(ctx.homology[1], lift=tree.lift)
    assert G.factors == (4, 4) and len(G.generators) == 2
    units = [[int(i == j) for j in range(tree.size)] for i in range(tree.size)]
    assert len(G.project_columns(units)) == tree.size
    assert calls == [3]
    searches = counted_searches(monkeypatch)
    assert full_report(cover).results.get("double_subset").verdict == "pass"
    assert [args[0] for args in searches] == [tree]


# ---------------------------------------------------------------------------
# The checks as they ran before the pairing moved into the search: the
# whole tree is enumerated, every subset sorted, and only then filtered
# and paired in the cokernel of the dense form, and |coker Q| is its
# Bareiss determinant.  Each takes
# the plumbing tree and returns (verdict, notes); the streamed checks
# must reach the same verdict, and the same notes wherever they do not
# pass.


def full_double_subset(tree):
    Q = dense(tree)
    det = determinant(Q) * (-1) ** len(Q)
    if det < 0 or math.isqrt(det) ** 2 != det:
        return "obstructed", double_subset_obstruction(*bare(tree)).notes  # no search either way
    res = enumerate_subsets(tree)
    if not res.complete:
        return "inconclusive", "budget exhausted"
    _, G = cokernel(Q)
    columns = [(subset_column_subgroup(G, s), s) for s in res.subsets]
    # a complete search yields each column subgroup once
    assert len({H.basis for H, _ in columns}) == len(columns), "a column subgroup repeats"
    note = ""
    if G.order % 2 == 1:
        kept = [(H, s) for H, s in columns if char_vector_criterion(G, H.generators)]
        if len(kept) != len(columns):
            removed = len(columns) - len(kept)
            note = f"{removed} factorisation(s) removed by the correction-term filter; "
        columns = kept
    if G.order == 1:
        return ("pass", "") if columns else ("obstructed", note + "no factorisation exists")
    reps = {}
    for H, _ in columns:
        reps.setdefault(H.basis, H)
    halves = [H for H in reps.values() if H.order * H.order == G.order]
    for i, H1 in enumerate(halves):
        for H2 in halves[i + 1 :]:
            if H1.factors == H2.factors and direct_sum_test(G, H1, H2)[0]:
                return "pass", ""
    usable = f"complete search: {len(reps)} usable subgroup(s), no splitting pair"
    return "obstructed", note + usable


def full_semidefinite(tree):
    if enumerate_subsets(tree).subsets:
        return "pass", ""
    return "obstructed", "complete search: no rectangular factorisation"


def full_nonorientable(tree):
    Q = dense(tree)
    det = determinant(Q) * (-1) ** len(Q)
    if not Q or det < 0 or math.isqrt(det) ** 2 != det:
        res = nonorientable_obstruction(*bare(tree))  # no search either way
        return res.verdict, res.notes
    _, G = cokernel(Q)
    columns = [subset_column_subgroup(G, s) for s in enumerate_subsets(tree).subsets]
    qualifying = [H for H in columns if doubled_factors(H.factors) == tuple(sorted(G.factors))]
    for i, H1 in enumerate(qualifying):
        for H2 in qualifying[i:]:
            if direct_sum_test(G, H1, H2)[2] <= 2:
                return "pass", ""
    return "obstructed", (
        f"complete search: {len(qualifying)} qualifying subset(s), no pair with intersection <= 2"
    )


def certificate_fault(check: str, result, tree, group) -> str | None:
    """Why a streamed pass does not certify itself, or None.  The rows are
    checked against the dense form, and the subgroups compared in the
    report's ``group`` through the tree's lift, where the check built
    them."""
    Q = dense(tree)
    if check == "semidefinite_subset":
        (A,) = result.certificates
        return None if verify_factorization(A, Q) else "rows do not factor Q"
    G = replace(group, lift=tree.lift)
    if result.notes.endswith("trivial cokernel"):
        ((A1, A2),) = result.certificates
        if G.order == 1 and A1 is A2 and verify_factorization(A1, Q):
            return None
        return "not one factorisation of a unimodular Q"
    (A1, A2), (H1, H2) = result.certificates
    if not (verify_factorization(A1, Q) and verify_factorization(A2, Q)):
        return "rows do not factor Q"
    columns = subset_column_subgroup(G, A1), subset_column_subgroup(G, A2)
    if isinstance(H1, dict):  # a built pair cites each half's type
        if any([H["subgroup_factors"], H["order"]] != [list(C.factors), C.order]
               for H, C in zip((H1, H2), columns)):
            return "the cited halves are not the column subgroups of the rows"
        H1, H2 = columns
    elif [C.basis for C in columns] != [H1.basis, H2.basis]:
        return "subgroups are not the column subgroups of the rows"
    is_direct, _, meet = direct_sum_test(G, H1, H2)
    if check == "double_subset":
        if G.order % 2 and not all(char_vector_criterion(G, H.generators) for H in (H1, H2)):
            return "a subset fails the correction-term filter"
        return None if is_direct and H1.factors == H2.factors else "pair does not split G"
    doubled = tuple(sorted(G.factors))
    if doubled_factors(H1.factors) != doubled or doubled_factors(H2.factors) != doubled:
        return "a subgroup does not double to G"
    return None if meet <= 2 else "pair meets in more than 2"


FULL_CHECKS = {
    "double_subset": full_double_subset,
    "semidefinite_subset": full_semidefinite,
    "nonorientable_double_subset": full_nonorientable,
}


def streaming_faults(m, tally: Counter) -> list[str]:
    """Compare every search check of one report with its full-enumeration
    form; the report runs with certificates, so a lens sum's searches run.
    ``tally`` counts the (check, verdict) pairs of the forms searched,
    under (check, "not H + H") the forms the streamed check refuted by the
    invariant factors of coker Q, and under (check, "odd linking form")
    and (check, "nonhyperbolic linking form") those it refuted by the
    linking form at 2 or at an odd prime, all with no search; there the
    full search must say "obstructed" too.  A built pass, a lens sum's
    pair, that of legs in weak complements or the rows of complementary
    legs at e = 0, is checked as a streamed pass is, and counted under
    (check, "built")."""
    ctx = ManifoldContext(m)
    report = full_report(m, certificates=True)
    faults = []
    for name, r in report.results.items():
        check = name.removesuffix("_mirror")
        if check not in FULL_CHECKS:
            continue
        if name.endswith("_mirror"):
            side = "-"
        else:
            side = ctx.definite_side if check == "double_subset" else "+"
        tree = ctx.tree(side)
        group = ctx.coker
        verdict, notes = FULL_CHECKS[check](tree)
        refuted = "not H + H" if "not of the form H + H" in r.notes else None
        if "linking form of coker Q is odd" in r.notes:
            refuted = "odd linking form"
        if "linking form of coker Q is not hyperbolic" in r.notes:
            refuted = "nonhyperbolic linking form"
        if refuted:
            # refuted with no search; the full search must agree
            tally[check, refuted] += 1
            if verdict != "obstructed":
                faults.append(f"{m.describe()} {name}: {r.notes} vs {verdict} ({notes})")
            continue
        if "perfect square" not in notes:
            tally[check, "built" if " built from " in r.notes else verdict] += 1
        if r.verdict != verdict or (verdict != "pass" and r.notes != notes):
            streamed = f"{r.verdict} ({r.notes})"
            faults.append(f"{m.describe()} {name}: {streamed} vs {verdict} ({notes})")
        elif verdict == "pass" and (why := certificate_fault(check, r, tree, group)):
            faults.append(f"{m.describe()} {name}: {why}")
    return faults


LENS_SUMMANDS = [(p, q) for p in range(2, 16) for q in range(1, p) if math.gcd(p, q) == 1]
PRETZEL_VALUES = [a for a in range(-5, 6) if a]
SMALL_FIBRES = [(a, b) for a in range(2, 6) for b in range(1, a) if math.gcd(a, b) == 1]


def test_streamed_checks_match_full_enumeration_on_lens_sums():
    tally = Counter()
    pairs = itertools.combinations_with_replacement(LENS_SUMMANDS, 2)
    assert [f for pair in pairs for f in streaming_faults(LensSum(list(pair)), tally)] == []
    assert tally == {
        ("double_subset", "built"): 84,
        ("double_subset", "obstructed"): 116,
        ("double_subset", "not H + H"): 48,
        ("double_subset", "odd linking form"): 116,
        ("double_subset", "nonhyperbolic linking form"): 248,
    }


def test_streamed_checks_match_full_enumeration_on_pretzels():
    tally = Counter()
    covers = itertools.combinations_with_replacement(PRETZEL_VALUES, 3)
    assert [f for s in covers for f in streaming_faults(PretzelCover(list(s)), tally)] == []
    assert tally == {
        ("double_subset", "pass"): 8,
        ("double_subset", "obstructed"): 2,
        ("double_subset", "not H + H"): 26,
        ("double_subset", "odd linking form"): 2,
        ("semidefinite_subset", "obstructed"): 4,
    }


def test_streamed_checks_match_full_enumeration_on_complementary_pairs():
    """Two complementary fibre pairs over S^2 give e = 0, so the
    semidefinite rows pass on both sides with built rows, which the full
    search must confirm."""
    tally = Counter()
    for pairs in itertools.combinations_with_replacement(SMALL_FIBRES, 2):
        y = SeifertManifold(True, 0, 0, [*pairs, *((a, -b) for a, b in pairs)])
        assert streaming_faults(y, tally) == []
    assert tally == {("semidefinite_subset", "built"): 90}


def test_streamed_checks_match_full_enumeration_on_nonorientable_bases():
    """Legs in weak complements that keep the even-fibre clause pass with
    the built pair, which the full search must confirm; the rest search."""
    tally = Counter()
    spaces = [
        SeifertManifold(False, 1, 0, list(fibres))
        for k in (2, 3, 4)
        for fibres in itertools.combinations_with_replacement(SMALL_FIBRES, k)
    ]
    assert [f for y in spaces for f in streaming_faults(y, tally)] == []
    assert tally == {
        ("nonorientable_double_subset", "built"): 66,
        ("nonorientable_double_subset", "pass"): 20,
        ("nonorientable_double_subset", "obstructed"): 210,
        ("nonorientable_double_subset", "not H + H"): 64,
    }


def test_disjoint_chains_have_an_odd_linking_form_iff_some_p_is_even():
    """A lens sum's chains give an orthogonal sum of lens-space forms q/p on
    Z/p with q prime to p, so the 2-primary linking form of H_1 is odd
    exactly when some summand has an even p; where the factors pair up,
    that is when the double-subset row is refuted by it."""
    summands = [(p, q) for p, q in LENS_SUMMANDS if p <= 9]
    refuted = 0
    for k in (1, 2, 3):
        for sum_ in itertools.combinations_with_replacement(summands, k):
            m = LensSum(list(sum_))
            torsion = first_homology(m)[1]
            even_p = any(p % 2 == 0 for p, _ in sum_)
            odd = odd_linking_factor(torsion, linking_form(torsion, *chain_ends(m)))
            assert (odd is not None) == even_p, sum_
            if obstructions.pairs_up(torsion.factors):
                report = full_report(m, budget=1, only=["double_subset"])
                row = report.results.get("double_subset")
                assert ("linking form of coker Q is odd" in row.notes) == even_p, sum_
                refuted += even_p
    assert refuted == 21


def double_subset_trees(m) -> list[PlumbingTree]:
    """The trees the double-subset rows of m's report search: both sides
    of a lens sum, the definite side of an e != 0 space or cover."""
    ctx = ManifoldContext(m)
    if ctx.table is LENS_SUM:
        return [ctx.tree("+"), ctx.tree("-")]
    return [ctx.tree(ctx.definite_side)] if ctx.table is ORIENTABLE else []


def test_no_double_subset_pass_has_an_odd_linking_form():
    """Every splitting pair makes the linking form hyperbolic, so a search
    that skips the linking-form refutations never passes where one of
    them would fire: the form odd at 2, or not hyperbolic at an odd prime.
    The distinct trees whose factors pair up are searched so, over the
    golden inputs, the 3- and 4-strand pretzels with |a_i| <= 7 and
    e != 0, the S5 census spaces and every two-summand lens sum with
    p <= 15.  Each tally counts (verdict, |coker Q| even, form odd at 2,
    form not hyperbolic at an odd prime): 57 passes, 15 of them of even
    order, 56 trees the 2-primary test refutes and 61 that only the
    odd-primary test refutes.  Isomorphic plumbings are one tree, so a
    sum and its reordering or mirror count once.  The linking form is
    read on the chain ends of H_1, and each tree is searched whatever its
    form."""
    pretzels = [
        PretzelCover(list(s))
        for k in (3, 4)
        for s in itertools.combinations_with_replacement([a for a in range(-7, 8) if a], k)
    ]
    pairs = itertools.combinations_with_replacement(LENS_SUMMANDS, 2)
    sweeps = {
        "golden": [parse_manifold(expr) for expr in corpus_inputs()],
        "pretzels": pretzels,
        "S5": sweep_s5(),
        "lens": [LensSum(list(pair)) for pair in pairs],
    }
    tallies = {}
    for name, manifolds in sweeps.items():
        tally, seen = Counter(), set()
        for m in manifolds:
            y = pretzel_to_seifert(m) if isinstance(m, PretzelCover) else m
            G = first_homology(y)[1]
            for tree in double_subset_trees(y):
                if tree in seen or not obstructions.pairs_up(G.factors):
                    continue
                seen.add(tree)
                verdict = double_subset_obstruction(tree, G).verdict
                even = G.order % 2 == 0
                form = linking_form(G, *chain_ends(y))
                odd = odd_linking_factor(G, form) is not None
                tally[verdict, even, odd, nonhyperbolic_part(form) is not None] += 1
        assert not [key for key in tally if key[0] == "pass" and any(key[2:])], name
        tallies[name] = tally
    passes = {
        name: (t["pass", False, False, False], t["pass", True, False, False])
        for name, t in tallies.items()
    }
    assert passes == {"golden": (11, 4), "pretzels": (11, 9), "S5": (3, 2), "lens": (17, 0)}
    refuted = {
        name: sum(n for (v, _, odd, _), n in t.items() if v == "obstructed" and odd)
        for name, t in tallies.items()
    }
    assert refuted == {"golden": 7, "pretzels": 5, "S5": 1, "lens": 43}
    nonhyperbolic = {
        name: sum(n for (v, _, odd, nh), n in t.items() if v == "obstructed" and nh and not odd)
        for name, t in tallies.items()
    }
    assert nonhyperbolic == {"golden": 2, "pretzels": 1, "S5": 2, "lens": 56}


# ---------------------------------------------------------------------------
# The built pair of an embeddable lens sum, and the odd-primary linking form


def built_pair_fault(m: LensSum) -> str | None:
    """Why the pair built from m's summands does not certify the
    double-subset check, or None: A and A' must factor -Q of the dense
    form of ``ctx.tree(side)`` on both sides, both pass the
    correction-term filter, their column subgroups split coker Q, and the
    halves cited are those subgroups' type.  The pair is laid out from the
    chain ends with no tree, so the factorisation checks the shared
    layout against the real plumbing."""
    ctx = ManifoldContext(m)
    group = ctx.homology[1]
    result = obstructions.built_pass("double_subset", chain_ends(m)[1], group)
    (A1, A2), (half, _) = result.certificates
    for side in "+-":
        Q = dense(ctx.tree(side))
        if not (verify_factorization(A1, Q) and verify_factorization(A2, Q)):
            return f"rows do not factor -Q on side {side}"
    # -Y has Y's summand classes, so both sides are one tree with one lift
    G = replace(group, lift=ctx.tree("+").lift)
    H1, H2 = subset_column_subgroup(G, A1), subset_column_subgroup(G, A2)
    if not all(char_vector_criterion(G, H.generators) for H in (H1, H2)):
        return "a factorisation fails the correction-term filter"
    if not direct_sum_test(G, H1, H2)[0]:
        return "the column subgroups do not split coker Q"
    if (half["subgroup_factors"], half["order"]) != (list(H1.factors), H1.order):
        return "the cited half is not the column subgroup's type"
    return None


def random_mirror_sum(rng: random.Random) -> LensSum:
    """One to three mirror pairs L(p, q), L(p, p - q) with p odd, p < 40,
    each summand written as q or q^-1, a self-mirror class (q^2 = -1 mod
    p) now and then paired with a second copy of itself."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        p = rng.randrange(3, 40, 2)
        selfish = [q for q in range(1, p) if q * q % p == p - 1]
        if selfish and rng.random() < 0.4:
            q = r = rng.choice(selfish)
        else:
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            r = p - q
        summands += [(p, rng.choice([q, pow(q, -1, p)])), (p, rng.choice([r, pow(r, -1, p)]))]
    return LensSum(summands)


def seed1_embeds_lens_sums(monkeypatch) -> list[LensSum]:
    """The lens sums of the seed-1 lens_certificates benchmark workload
    that the theorem says embed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "s4bench"))
    import workloads

    cases = workloads.lens_certificates(1)
    return [parse_manifold(c.expr) for c in cases if c.allowed == {"EMBEDS"}]


def test_built_pairs_certify_every_embeddable_lens_sum(monkeypatch):
    """On 100 random odd mirror-paired sums with |H_1| < 3,000^2, on every
    embeddable lens sum of the golden corpus and on the 21 of seed-1
    lens_certificates, the built pair factors -Q, passes the filter and
    splits coker Q.  The random sums include self-mirror classes such as
    L(5,2) and L(13,5) paired with themselves."""
    rng = random.Random(38)
    sample = []
    while len(sample) < 100:
        m = random_mirror_sum(rng)
        # the filter collects every subset sum of H, so |H| stays below 3,000
        if math.prod(p for p, _ in m.summands) < 3000**2:
            sample.append(m)
    corpus = [parse_manifold(e) for e in corpus_inputs() if e.startswith("lens")]
    corpus = [m for m in corpus if full_report(m).status == "EMBEDS"]
    bench = seed1_embeds_lens_sums(monkeypatch)
    assert (len(corpus), len(bench)) == (9, 21)
    selfish = Counter(
        (p, q) for m in sample for p, q in m.summands if q * q % p == p - 1
    )
    assert selfish[5, 2] and selfish[13, 5]
    faults = []
    for m in sample + corpus + bench:
        # -Y has Y's summand classes, so both sides are equal trees
        ctx = ManifoldContext(m)
        assert ctx.tree("+") == ctx.tree("-"), m.describe()
        if why := built_pair_fault(m):
            faults.append(f"{m.describe()}: {why}")
    assert faults == []


def random_weak_pairs(rng: random.Random) -> SeifertManifold:
    """One to three weak complementary pairs (a, b), (a, -b) or (a, -b^-1)
    with 2 <= a <= 13, each fibre in any normalisation, over N(1) or N(2)
    with any central framing."""
    fibres = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(2, 13)
        b = rng.choice([b for b in range(1, a) if math.gcd(a, b) == 1])
        partner = rng.choice([-b, -pow(b, -1, a)])
        fibres += [(a, b + rng.randint(-1, 1) * a), (a, partner % a + rng.randint(-1, 1) * a)]
    return SeifertManifold(False, rng.randint(1, 2), rng.randint(-2, 2), fibres)


def random_alike_even_pairs(rng: random.Random) -> SeifertManifold:
    """Two to four weak pairs of one even a <= 16, every fibre of one lens
    class up to mirror, now and then a self-mirror class, beside zero to
    two weak pairs of odd a, each fibre in any normalisation, over N(1) or
    N(2): forests that keep the even-fibre clause."""
    a = rng.randrange(2, 17, 2)
    units = [b for b in range(1, a) if math.gcd(a, b) == 1]
    selfish = [b for b in units if b * b % a == a - 1]
    b = rng.choice(selfish) if selfish and rng.random() < 0.4 else rng.choice(units)
    fibres = []
    for _ in range(rng.randint(2, 4)):
        first, partner = rng.choice([b, pow(b, -1, a)]), rng.choice([-b, -pow(b, -1, a)])
        fibres += [(a, first + rng.randint(-1, 1) * a), (a, partner % a + rng.randint(-1, 1) * a)]
    for _ in range(rng.randint(0, 2)):
        o = rng.randrange(3, 16, 2)
        c = rng.choice([c for c in range(1, o) if math.gcd(o, c) == 1])
        fibres += [(o, c), (o, rng.choice([-c, -pow(c, -1, o)]))]
    return SeifertManifold(False, rng.randint(1, 2), rng.randint(-2, 2), fibres)


def built_pair_meets(y: SeifertManifold) -> list[int]:
    """|H meet H'| on each side's own plumbing and lift, for the pair built
    from the legs of y, after checking that A A^t = A' A'^t = -Q there and
    that both column subgroups have the cited type and double to coker Q
    of the legs."""
    ctx = ManifoldContext(y)
    group = ctx.coker
    result = obstructions.built_pass("nonorientable_double_subset", ctx.forest, group)
    (A1, A2), (half, _) = result.certificates
    meets = []
    for side in "+-":
        tree = plumbing_tree(y, side)
        assert verify_factorization(A1, dense(tree)), (y.describe(), side)
        assert verify_factorization(A2, dense(tree)), (y.describe(), side)
        G = replace(group, lift=tree.lift)
        H1, H2 = subset_column_subgroup(G, A1), subset_column_subgroup(G, A2)
        for H in (H1, H2):
            assert doubled_factors(H.factors) == G.factors, (y.describe(), side)
            assert (half["subgroup_factors"], half["order"]) == (list(H.factors), H.order)
        meets.append(direct_sum_test(G, H1, H2)[2])
    return meets


def test_built_pairs_of_weak_pairs_double_and_meet_in_two_per_even_pair(monkeypatch):
    """On 200 random weak-paired forests and 60 seeded ones with two to
    four pairs of even a that keep the even-fibre clause, the report
    builds the pair iff the clause holds, and both certificate rows then
    read it.  On each side's own plumbing the built pair factors -Q, both
    column subgroups have the cited type and double to coker Q of the
    legs, and they meet in 2 elements where some pair has a even, else in
    1.  The two other sign rules for A''s cyclic matching each fail on
    some seeded forest: negating every second chain meets in all of Z/a
    for an even number of pairs, and negating none for every a > 2."""
    rng = random.Random(40)
    tally = Counter()
    name = "nonorientable_double_subset"
    forests = [random_weak_pairs(rng) for _ in range(200)]
    seeded = random.Random(44)
    alike = [random_alike_even_pairs(seeded) for _ in range(60)]
    for y in forests + alike:
        ctx = ManifoldContext(y)
        even_pairs = sum(a % 2 == 0 for a, _ in y.invariants) // 2
        clause = even_fibre_clause(y.invariants)
        assert (ctx.built_pair is not None) == clause, y.describe()
        report = full_report(y, certificates=True)
        rows = [r for row, r in report.results.items() if row.startswith(name)]
        built = [r.notes.endswith("built from the mirror chains") for r in rows]
        assert built == [clause] * 2, y.describe()
        if clause:
            assert built_pair_meets(y) == [2 if even_pairs else 1] * 2, y.describe()
        tally[min(even_pairs, 2), clause] += 1
    assert min(tally.values()) >= 20, tally
    for rule in (lambda k: [True] * k, lambda k: [False] * k):
        monkeypatch.setattr(obstructions, "_cycle_signs", rule)
        assert any(built_pair_meets(y) != [2, 2] for y in alike)


def test_blown_up_chains_take_no_recursion():
    """blown_up_chain unwinds a chain of 10^5 blow-downs in a loop: the
    chain [2] * (p - 1), 1, p of the mirror pair L(p, p - 1), L(p, 1)
    gets rows through p coordinates, each of norm its weight, with no
    recursion, and a chain that does not blow down to (0) is refused."""
    p = 10**5 + 3
    c = [2] * (p - 1) + [1, p]
    rows = blown_up_chain(c)
    assert len(rows) == p + 1 and max(max(r, default=-1) for r in rows) == p - 1
    assert [sum(x * x for x in r.values()) for r in rows[-3:]] == c[-3:]
    for bad in ([2, 2], [1, 3], [], [2, 1]):
        with pytest.raises(ValueError):
            blown_up_chain(bad)


def lagrangian_split_exists(tree: PlumbingTree) -> bool:
    """Is coker Q, Q the dense form of ``tree``, of odd order at most 225,
    the direct sum of two Lagrangians of its linking form?  By brute
    force: the form is x^t Q^-1 y on the Smith generators of Q, in
    fractions, and the Lagrangians, the isotropic subgroups of order
    sqrt |G|, are spanned by at most two elements, as every subgroup of
    order 9 or less, or of order 15, is."""
    Q = dense(tree)
    U, D, _ = intlinalg.smith_normal_form(Q)
    torsion = [i for i in range(len(Q)) if D[i][i] >= 2]
    orders = [D[i][i] for i in torsion]
    units = intlinalg.identity_matrix(len(Q))
    gens = rational_solve(U, [units[i] for i in torsion])
    solved = rational_solve(Q, gens)
    N = math.lcm(*orders)
    gram = [[int(N * sum(a * b for a, b in zip(f, x))) % N for x in solved] for f in gens]
    order = math.prod(orders)
    root = math.isqrt(order)
    if root * root != order:
        return False
    elements = list(itertools.product(*(range(d) for d in orders)))

    def pair(x, y) -> int:
        return sum(a * b * gram[i][j] for i, a in enumerate(x) for j, b in enumerate(y)) % N

    def multiples(x) -> list:
        out, y = [zero], x
        while y != zero:
            out.append(y)
            y = tuple((a + b) % d for a, b, d in zip(y, x, orders))
        return out

    zero = (0,) * len(orders)
    cyclic = {x: multiples(x) for x in elements if pair(x, x) == 0}
    cyclic = {x: c for x, c in cyclic.items() if len(c) <= root}
    halves = set()
    for x, y in itertools.combinations_with_replacement(cyclic, 2):
        if pair(x, y):
            continue
        span = frozenset(
            tuple((a + b) % d for a, b, d in zip(h, k, orders)) for h in cyclic[x] for k in cyclic[y]
        )
        if len(span) == root:
            halves.add(span)
    return any(H1 & H2 == {zero} for H1, H2 in itertools.combinations(halves, 2))


def random_odd_space(rng: random.Random) -> LensSum | SeifertManifold:
    """A lens sum of one to four summands with p in 3, 5, 9, 15, 25, 27, or
    a star over S^2 with three or four fibres a in 3, 5, 9, half of them
    with a complementary pair (a, b), (a, -b), in any normalisation."""
    def unit(a):
        return rng.choice([b for b in range(-2 * a, 2 * a) if math.gcd(a, b) == 1])

    if rng.random() < 0.4:
        ps = [rng.choice([3, 3, 5, 5, 9, 15, 25, 27]) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.7:  # each p twice makes a square order likelier
            ps += ps
        return LensSum([(p, unit(p) % p) for p in ps])
    fibres = [(a, unit(a)) for a in (rng.choice([3, 3, 3, 5, 5, 9]) for _ in range(rng.randint(1, 2)))]
    if rng.random() < 0.5:  # a complementary pair makes a hyperbolic form likelier
        a, b = fibres[0]
        fibres.append((a, -b))
    while len(fibres) < 3:
        a = rng.choice([3, 3, 5])
        fibres.append((a, unit(a)))
    return SeifertManifold(True, 0, rng.randint(-3, 3), fibres)


def test_odd_primary_test_matches_brute_force_lagrangians():
    """On random chain forests and stars whose H_1 has odd order dividing
    3^4 or 5^2 3^2, the odd-primary test on the chain-end presentation
    finds the linking form hyperbolic exactly where brute force finds two
    Lagrangians that split the dense form's coker Q.  A lens sum is read
    on its '+' chains, a star on the side of e's sign; trees have at most
    14 vertices.  Of the 300 groups, 196 have square order: 77 of those
    forms are hyperbolic (50 on chains, 27 on stars) and 119 are not."""
    rng = random.Random(10)
    tally, orders = Counter(), Counter()
    while sum(tally.values()) < 300:
        m = random_odd_space(rng)
        e = None if isinstance(m, LensSum) else euler_invariant(m)
        if e == 0:
            continue
        G = first_homology(m)[1]
        if G.order == 1 or (81 % G.order and 225 % G.order):
            continue
        tree = plumbing_tree(m, "+" if e is None or e > 0 else "-")
        if tree.size > 14:
            continue
        hyperbolic = nonhyperbolic_part(linking_form(G, *chain_ends(m))) is None
        assert hyperbolic == lagrangian_split_exists(tree), m.describe()
        square = math.isqrt(G.order) ** 2 == G.order
        tally["chains" if e is None else "star", square, hyperbolic] += 1
        orders[G.order] += 1
    assert not tally["chains", False, True] and not tally["star", False, True]
    for kind in ("chains", "star"):
        assert min(tally[kind, True, True], tally[kind, True, False]) >= 10, tally
    assert orders[81] and orders[225], orders


def jordan_units(form, l: int) -> list[tuple[int, int]]:
    """Reference for ``nonhyperbolic_part``: (k, u) for each cyclic summand
    <u / l^k> of an orthogonal splitting of the l-primary part of lambda,
    l an odd prime, u a unit mod l, by elimination mod l^K, l^K the l-part
    of N.  The l-parts e_i = (d_i / l^k_i) x_i of the basis span that part,
    and b_ij = l^K lambda(e_i, e_j) mod l^K.  Among the e_i of the top
    exponent k, lambda is nondegenerate, so some b_ii, or some b_ij,
    i != j, has full order l^k; in the second case e_i + e_j, as l is odd,
    replaces e_i.  That e_i spans an orthogonal summand: every other e_j
    less c e_i, c = lambda(e_j, e_i) / lambda(e_i, e_i), is orthogonal to
    it, and of the same order, as l^k_j lambda(e_j, e_i) = 0 makes
    l^(k - k_j) divide c."""
    N = form.denominator
    K, M = 0, 1
    while N % (M * l) == 0:
        K, M = K + 1, M * l
    rest = N // M
    levels, parts = [], []
    for i, d in enumerate(form.orders):
        k, q = 0, d
        while q % l == 0:
            k, q = k + 1, q // l
        if k:
            levels.append(k)
            parts.append((i, q))
    b = [[0] * len(parts) for _ in parts]
    for s, (i, m) in enumerate(parts):
        for t, (j, m2) in enumerate(parts):
            x, r = divmod(m * m2 * form.gram[i][j], rest)
            assert r == 0, "l^K e is not zero in G"
            b[s][t] = x % M
    units = []
    live = list(range(len(parts)))
    while live:
        k = max(levels[s] for s in live)
        full = M // l**k  # b_st has full order l^k iff l * full does not divide it
        top = [s for s in live if levels[s] == k]
        i = next((s for s in top if b[s][s] % (full * l)), None)
        if i is None:
            i, j = next((s, t) for s in top for t in top if b[s][t] % (full * l))
            b[i] = [(x + y) % M for x, y in zip(b[i], b[j])]
            for row in b:
                row[i] = (row[i] + row[j]) % M
        live.remove(i)
        u = b[i][i] // full
        units.append((k, u % l))
        inverse = pow(u, -1, l**k)
        cs = {s: b[s][i] // full * inverse for s in live}
        for s in live:
            for t in live:
                b[s][t] = (b[s][t] - cs[t] * b[s][i] - cs[s] * b[i][t] + cs[s] * cs[t] * b[i][i]) % M
    return units


def jordan_nonhyperbolic_part(form) -> tuple[int, int] | None:
    """Reference for ``nonhyperbolic_part``: the pieces of each level are
    gathered from ``jordan_units``, and a piece is hyperbolic iff its rank
    n is even and (-1)^(n / 2) times the product of its units is a square
    mod l."""
    for l in obstructions._odd_primes(form.denominator):
        pieces: dict[int, list[int]] = {}
        for k, u in jordan_units(form, l):
            pieces.setdefault(k, []).append(u)
        for k in sorted(pieces):
            units = pieces[k]
            n = len(units)
            disc = (-1) ** (n // 2) * math.prod(units)
            if n % 2 or pow(disc, (l - 1) // 2, l) != 1:
                return l**k, n
    return None


# odd prime powers up to l^4, and orders of two odd primes
PRIME_POWERS = [[3, 9, 27, 81], [5, 25, 125, 625], [7, 49, 343, 2401]]
MIXED_ORDERS = [15, 21, 35, 45, 63, 75, 105, 225]


def random_odd_form(rng: random.Random) -> LensSum | SeifertManifold:
    """A lens sum of one to three orders, each doubled with probability
    0.6, its second copy a mirror half the time; or a star over S^2 with
    three or four fibres, half of them with a complementary pair.  Each
    order is an odd prime power up to l^4, or one in five times a product
    of two odd primes."""

    def order():
        if rng.random() < 0.2:
            return rng.choice(MIXED_ORDERS)
        return rng.choice(rng.choice(PRIME_POWERS)[: rng.randint(1, 4)])

    def unit(a):
        b = rng.randrange(1, a)
        while math.gcd(a, b) != 1:
            b = rng.randrange(1, a)
        return b

    if rng.random() < 0.5:
        summands = [(p, unit(p)) for p in (order() for _ in range(rng.randint(1, 3)))]
        for p, q in list(summands):
            if rng.random() < 0.6:
                summands.append((p, p - q if rng.random() < 0.5 else unit(p)))
        return LensSum(summands)
    fibres = [(a, unit(a)) for a in (order() for _ in range(rng.randint(2, 3)))]
    if rng.random() < 0.5:
        a, b = fibres[0]
        fibres.append((a, -b))
    if len(fibres) < 3:
        fibres.append((rng.choice([3, 5, 7]), 1))
    return SeifertManifold(True, 0, rng.randint(-3, 3), fibres)


def test_residual_forms_match_the_jordan_reference():
    """On 2,000 seeded lens sums and stars whose orders hold the odd primes
    3, 5 and 7 at levels up to l^4, and products of two, the residual-form
    test of ``nonhyperbolic_part`` returns what the Jordan splitting of
    ``jordan_units`` does.  The tally counts, on chains and on stars, the
    hyperbolic forms, those hyperbolic at their least odd prime that fail
    at a later one, and at the least prime those whose first failing
    piece has level k >= 2 and those where it has level 1."""
    rng = random.Random(48)
    tally = Counter()
    while sum(tally.values()) < 2000:
        m = random_odd_form(rng)
        if isinstance(m, SeifertManifold) and euler_invariant(m) == 0:
            continue
        G = first_homology(m)[1]
        form = linking_form(G, *chain_ends(m))
        part = nonhyperbolic_part(form)
        assert part == jordan_nonhyperbolic_part(form), m.describe()
        kind = "chains" if isinstance(m, LensSum) else "star"
        if part is None:
            tally[kind, "hyperbolic"] += 1
        elif part[0] % (l := obstructions._odd_primes(form.denominator)[0]):
            tally[kind, "second prime"] += 1
        else:
            tally[kind, "k >= 2" if part[0] > l else "k = 1"] += 1
    assert tally == {
        ("chains", "hyperbolic"): 227,
        ("chains", "second prime"): 159,
        ("chains", "k >= 2"): 261,
        ("chains", "k = 1"): 344,
        ("star", "hyperbolic"): 12,
        ("star", "second prime"): 154,
        ("star", "k >= 2"): 363,
        ("star", "k = 1"): 480,
    }


def test_a_long_sum_is_read_level_by_level():
    """The form of 600 summands L(3, 1) is hyperbolic, and with one of them
    L(3, 2) instead it is not, on all of Z/3^600: the residual form is
    600 x 600 and diagonal, read with no Jordan elimination."""
    for summands, part in (([(3, 1)] * 599 + [(3, 2)], (3, 600)), ([(3, 1)] * 600, None)):
        m = LensSum(summands)
        G = first_homology(m)[1]
        assert nonhyperbolic_part(linking_form(G, *chain_ends(m))) == part
