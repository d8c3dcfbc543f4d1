import math
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from s4embed import classify, intlinalg, manifolds, obstructions, plumbing
from s4embed.classify import (
    ManifoldContext,
    RowError,
    catalog_matches,
    complementary_matched,
    even_fibre_clause,
    full_report,
    weak_complementary_matched,
)
from s4embed.cli import invariants_json, parse_manifold
from s4embed.intlinalg import cokernel, identity_matrix, subgroup_from_generators
from s4embed.manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    euler_invariant,
    first_homology,
    pretzel_to_seifert,
)
from s4embed.plumbing import plumbing_tree
from test_census import fibres, mirror, sweep_s5
from test_intlinalg import dense
from test_manifolds import pretzel_strand_forms
from test_spin import pretzel_link_components


def status(m) -> str:
    return full_report(m).status


def test_decide_lens_sum_examples():
    assert status(LensSum([(3, 1), (3, 2)])) == "EMBEDS"
    assert status(LensSum([(2, 1), (2, 1)])) == "OBSTRUCTED"
    assert status(LensSum([(5, 1), (5, 1)])) == "OBSTRUCTED"
    assert status(LensSum([])) == "EMBEDS"
    # amphichiral summand: q^2 = -1 mod p needs even multiplicity
    assert status(LensSum([(5, 2), (5, 2)])) == "EMBEDS"
    assert status(LensSum([(5, 2)])) == "OBSTRUCTED"


@pytest.mark.parametrize("p", [31, 45, 61])
def test_long_chain_lens_sums_embed(p):
    # the form on either side has a (p-1)-vertex chain
    r = full_report(LensSum([(p, 1), (p, p - 1)]), certificates=True)
    assert r.status == "EMBEDS"
    verdicts = {name: res.verdict for name, res in r.results.items()}
    assert verdicts["double_subset"] == verdicts["double_subset_mirror"] == "pass"


def test_lens_pairing_invariances():
    # q and q^-1 present the same lens space
    assert status(LensSum([(7, 2), (7, 5)])) == status(LensSum([(7, 4), (7, 5)]))
    assert ManifoldContext(LensSum([(7, 2), (7, 5)])).lens_sum_fault is None
    assert ManifoldContext(LensSum([(7, 4), (7, 5)])).lens_sum_fault is None


def test_pairing_helpers():
    assert complementary_matched([(5, 1), (5, -1)])
    assert not complementary_matched([(5, 1), (5, 1)])
    assert complementary_matched([(5, 1), (5, 4)])  # 4 = -1 mod 5
    assert weak_complementary_matched([(5, 2), (5, -3)])  # 2*3 = 6 = 1 mod 5
    assert not weak_complementary_matched([(5, 2), (3, 1)])
    assert even_fibre_clause([(4, 1), (4, 3), (5, 2)])
    assert not even_fibre_clause([(4, 1), (6, 1)])


def test_decide_seifert_examples():
    y = SeifertManifold(True, 0, 0, [(5, 1), (5, -1)])
    assert status(y) == "EMBEDS"

    y2 = SeifertManifold(False, 1, 0, [(3, 1), (2, 1)])
    assert status(y2) == "OBSTRUCTED"

    y3 = SeifertManifold(True, 0, 0, [(4, 1), (4, 1), (12, -7)])
    v3 = full_report(y3)
    assert v3.status == "EMBEDS"
    assert "surgery_example" in v3.reason

    # non-orientable base with weak complementary pair passes the search
    y4 = SeifertManifold(False, 1, 0, [(3, 1), (3, -1)])
    assert status(y4) in ("UNKNOWN", "EMBEDS")


def test_decide_seifert_e0_without_odd_clause():
    # (4,1),(4,-1) with e = 0 has H_1 = Z: it is S^1 x S^2
    y = SeifertManifold(True, 0, 0, [(4, 1), (4, -1)])
    assert status(y) == "EMBEDS"

    # non-complementary e = 0 is refuted; torsion_square fires first, and a
    # default report stops there
    y2 = SeifertManifold(True, 0, 0, [(2, 1), (6, -1), (6, -1), (6, -1)])
    r2 = full_report(y2)
    assert r2.status == "OBSTRUCTED"
    assert r2.reason == "obstruction:torsion_square"
    assert list(r2.results) == ["torsion_square"]
    every = full_report(y2, certificates=True)
    assert (every.status, every.reason) == (r2.status, r2.reason)
    assert every.results.get("complementary_pairs").obstructed


def test_small_seifert_follows_lens_rule():
    # at most two fibres over S^2: S^3 and S^1 x S^2 embed, lens spaces do
    # not.  The torsion row alone decides: Z/4 has square order but is not
    # G + G, and the verdict cites the lens-space theorem.
    assert status(SeifertManifold(True, 0, 0, [(3, 1)])) == "EMBEDS"  # S^3
    assert status(SeifertManifold(True, 0, -1, [(2, -1), (3, -1)])) == "EMBEDS"  # S^3
    r = full_report(SeifertManifold(True, 0, 0, [(2, 1), (2, 1)]))  # L(4, q)
    assert (r.status, r.reason) == ("OBSTRUCTED", "theorem:lens_mirror_pairing")
    assert list(r.results) == ["torsion_square"]
    assert r.results.get("torsion_square").notes == "torsion H_1 = Z/4 is not of the form G + G"


@pytest.mark.parametrize(
    "expr, group",
    [("seifert(N(1); 1; )", "Z/4"), ("seifert(N(1); 0; (5,2),(5,-3))", "Z/5 + Z/20")],
)
def test_torsion_that_is_not_g_plus_g_is_refuted(expr, group):
    """Torsion of square order that does not split as G + G (Hantzsche)
    refutes the space, where every other row of its class passes."""
    r = full_report(parse_manifold(expr))
    assert (r.status, r.reason) == ("OBSTRUCTED", "obstruction:torsion_square")
    notes = f"torsion H_1 = {group} is not of the form G + G"
    assert r.results.get("torsion_square").notes == notes
    assert [name for name, res in r.results.items() if res.obstructed] == ["torsion_square"]


def test_g_plus_g_torsion_passes_the_torsion_row():
    r = full_report(parse_manifold("lens(3,1)+lens(3,2)"))
    assert invariants_json(r)["torsion_factors"] == [3, 3]
    assert r.results.get("torsion_square").verdict == "pass"
    assert (r.status, r.reason) == ("EMBEDS", "catalog:mirror_lens_sum")


def test_g_plus_g_torsion_subsumes_the_retired_rows():
    """Two rows went once the torsion row tested G + G, as each refuted
    only spaces whose torsion does not pair up.

    - The parity rule: a pretzel cover with k link components has
      b_1 even iff k is odd.  dim H_1(Y; Z/2) = k - 1 and G + G torsion
      has even 2-rank, so the rule holds wherever the torsion pairs up.
      Checked on every 3- and 4-strand cover with 1 <= |a_i| <= 7, k
      traced off the diagram.
    - The lens-space row: a lens space has cyclic H_1, never G + G unless
      trivial.  Checked on the covers above of that class and on every
      space over S^2 with at most two fibres a <= 11, r in [-3, 3].
    """
    strands = [x for x in range(-7, 8) if x]
    covers = [
        PretzelCover(list(s)) for n in (3, 4) for s in combinations_with_replacement(strands, n)
    ]
    spaces = [
        SeifertManifold(True, 0, r, list(invs))
        for r in range(-3, 4)
        for n in range(3)
        for invs in combinations_with_replacement(fibres(11), n)
    ]
    parity_refuted = lens_spaces = 0
    for m in covers + spaces:
        ctx = ManifoldContext(m)
        b1, torsion = ctx.homology
        paired = obstructions.pairs_up(torsion.factors)
        if isinstance(m, PretzelCover):
            k = pretzel_link_components(m.strands)
            parity_refuted += (b1 % 2 == 0) != (k % 2 == 1)
            assert not paired or (b1 % 2 == 0) == (k % 2 == 1), m.describe()
        if ctx.table is classify.LENS_SPACE:
            lens_spaces += 1
            assert torsion.order == 1 or not paired, m.describe()
    assert (len(covers), parity_refuted) == (2940, 1344)
    assert (len(spaces), lens_spaces) == (6321, 6321 + 483)


def keys(strands):
    """The normalised Seifert keys of the cover and of its mirror, as a
    report reads them."""
    return ManifoldContext(PretzelCover(strands)).seifert_keys


# The two readings of the family member: the catalog's and the merge rule's.


def pretzel_embeddable_family(keys) -> str | None:
    hit = classify._family_member(keys)
    return hit[0] if hit is not None and hit[0] != classify.OPEN_FAMILY else None


def pretzel_unknown_family(keys) -> int | None:
    hit = classify._family_member(keys)
    return (hit[1][0] + 1) // 2 if hit is not None and hit[0] == classify.OPEN_FAMILY else None


def test_pretzel_families():
    assert pretzel_embeddable_family(keys([3, -3, 3])) is not None
    assert pretzel_embeddable_family(keys([4, -4, 4, -4])) is not None
    assert pretzel_embeddable_family(keys([2, -2, 3, -3])) is not None
    assert pretzel_embeddable_family(keys([2, -2, 4, -4])) is None  # both even
    assert pretzel_embeddable_family(keys([3, -2, 2, -2])) is not None
    assert pretzel_embeddable_family(keys([1, -2, 2, -2])) is not None
    # Rolfsen-equivalent presentation of Y(2,-2,2)
    assert pretzel_embeddable_family(keys([1, -2, -2, -2])) is not None
    assert pretzel_embeddable_family(keys([5, -4, 3, 2])) is None


def test_pretzel_unknown_family():
    assert pretzel_unknown_family(keys([3, -5, -8])) == 2
    assert pretzel_unknown_family(keys([-3, 5, 8])) == 2
    assert pretzel_unknown_family(keys([5, -7, -18])) == 3
    assert pretzel_unknown_family(keys([3, -3, 3])) is None


# The matcher that keys replaced: list every strand form of the cover and
# of its mirror, and scan each form for the family shapes.


def oracle_strand_forms(m):
    """Every pretzel presentation of the cover and of its mirror, none
    when the manifold is not a pretzel cover."""
    s = ManifoldContext(m).seifert
    return tuple(sorted({*pretzel_strand_forms(s), *pretzel_strand_forms(mirror(s))}))


def oracle_family_match(strands):
    """The embeddable family one strand form matches, or None."""
    ms = Counter(strands)
    n = len(strands)
    values = sorted(set(strands), key=abs)
    if n == 3:
        for a in values:
            if ms == Counter({a: 2, -a: 1}):
                return "pretzel(a,-a,a)"
    if n == 4:
        for a in values:
            if a > 0 and ms == Counter({a: 2, -a: 2}):
                return "pretzel(a,-a,a,-a)"
        for a in values:
            for d in (a + 1, a - 1):
                target = Counter({-a: 2, a: 1})
                target[d] += 1
                if ms == target:
                    return "pretzel(a+-1,-a,a,-a)"
        pos = sorted((x for x in strands if x > 0), key=abs)
        neg = sorted((-x for x in strands if x < 0), key=abs)
        if len(pos) == 2 and pos == neg:
            a, b = pos
            if a % 2 or b % 2:
                return "pretzel(a,-a,b,-b) odd"
    return None


def oracle_unknown_family(forms):
    """l when some form is (2l-1, -2l-1, -2l^2), else None."""
    for strands in forms:
        evens = [x for x in strands if x % 2 == 0]
        odds = sorted(x for x in strands if x % 2)
        if len(strands) != 3 or len(evens) != 1 or len(odds) != 2:
            continue
        c = evens[0]
        if c >= 0 or (-c) % 2:
            continue
        half = -c // 2
        l = math.isqrt(half)
        if l * l != half or l < 1:
            continue
        if odds == sorted((2 * l - 1, -2 * l - 1)):
            return l
    return None


def membership_disagrees(m) -> str | None:
    """How key matching differs from the strand-form scan on ``m``."""
    forms = oracle_strand_forms(m)
    scanned = (any(map(oracle_family_match, forms)), oracle_unknown_family(forms))
    seifert_keys = ManifoldContext(m).seifert_keys
    keyed = (
        pretzel_embeddable_family(seifert_keys) is not None,
        pretzel_unknown_family(seifert_keys),
    )
    return None if keyed == scanned else f"keys give {keyed}, forms {scanned}"


def small_fibres(bound):
    """Fibres (a, b) with a <= bound and 0 < |b| < a."""
    return [(a, b) for a in range(2, bound + 1) for b in range(-a + 1, a) if math.gcd(a, b) == 1]


def test_family_keys_agree_with_the_strand_form_scan():
    """Every 3- and 4-strand cover with |a_i| <= 7, and every Seifert
    space over S^2 with three fibres a <= 5 and r in [-2, 2], is in the
    same family whether its keys or its strand forms are compared."""
    values = [x for x in range(-7, 8) if x]
    covers = [PretzelCover(s) for n in (3, 4) for s in combinations_with_replacement(values, n)]
    spaces = [
        SeifertManifold(True, 0, r, fibres)
        for fibres in combinations_with_replacement(small_fibres(5), 3)
        for r in range(-2, 3)
    ]
    assert (len(covers), len(spaces)) == (2940, 5700)
    found = {m.describe(): why for m in covers + spaces if (why := membership_disagrees(m))}
    assert found == {}


def test_decide_pretzel_examples():
    assert status(PretzelCover([3, -3, 3])) == "EMBEDS"
    assert status(PretzelCover([3, -5, -8])) == "UNKNOWN"
    v = full_report(PretzelCover([1, -4, -4, -4]))
    assert v.status == "OBSTRUCTED"
    assert v.reason == "obstruction:double_subset"


def test_decide_pretzel_small_routes_to_lens():
    # P(a,b,+-1) covers are lens spaces
    assert status(PretzelCover([2, 3, 1])) == "OBSTRUCTED"
    assert status(PretzelCover([1, -3, -2])) == "EMBEDS"  # S^3
    # det |pq + qr + rp| = |-4 - 2 + 2| = 4: the lens space L(4, q)
    assert status(PretzelCover([2, -2, 1])) == "OBSTRUCTED"
    assert status(PretzelCover([-2, -2, 1])) == "EMBEDS"  # det 0: S^1xS^2


def test_decide_pretzel_mirror_invariance():
    for strands in [(3, -3, 3), (4, -4, 2, -2), (5, 2, 2, 2), (3, -5, -8)]:
        a = status(PretzelCover(strands))
        b = status(PretzelCover([-x for x in strands]))
        assert a == b


def test_full_report_examples():
    r = full_report(PretzelCover([2, -2, 3, -3]))
    assert r.status == "EMBEDS"
    assert all(not res.obstructed for res in r.results.values())

    r2 = full_report(LensSum([(5, 1), (5, 1)]), certificates=True)
    assert r2.status == "OBSTRUCTED"
    assert r2.results["double_subset"].obstructed or r2.results["double_subset_mirror"].obstructed

    r3 = full_report(LensSum([]))
    assert r3.status == "EMBEDS"

    r4 = full_report(PretzelCover([4, -4, 2, -2]))
    assert r4.status == "OBSTRUCTED"
    assert r4.results.get("mubar_vanishing").obstructed


def test_full_report_merge_never_embeds_from_passes_alone():
    # all obstructions pass but no catalog entry: stays UNKNOWN
    y = SeifertManifold(False, 1, 0, [(3, 1), (3, -1)])
    r = full_report(y)
    assert all(not res.obstructed for res in r.results.values())
    assert r.status == "UNKNOWN"


def test_full_report_obstruction_filter():
    r = full_report(LensSum([(2, 1), (2, 1)]), only=["torsion_square"])
    assert list(r.results) == ["torsion_square"]
    assert r.status == "UNKNOWN"  # 4 is a square; the pairing check was filtered out


def test_a_named_row_the_class_lacks_raises(monkeypatch):
    """A name of ``only`` that is no row of the class raises RowError
    before any row runs (none reads H_1), though another name is one of
    them: a lens sum has no complementary_pairs row, so no report on
    RP^3 # RP^3, which the lens-sum theorem refutes, reads UNKNOWN with
    no results."""
    monkeypatch.setattr(classify, "first_homology", None)
    rows = "torsion_square, lens_mirror_pairing, double_subset, double_subset_mirror"
    message = f"lens(2,1) + lens(2,1) has no row complementary_pairs; its rows: {rows}"
    for only in (["complementary_pairs"], ["torsion_square", "complementary_pairs"]):
        for certificates in (False, True):
            with pytest.raises(RowError) as raised:
                full_report(LensSum([(2, 1), (2, 1)]), only=only, certificates=certificates)
            assert str(raised.value) == message


def test_a_named_row_with_no_result_raises():
    """A named row of the class that returns no result raises RowError:
    mubar_vanishing needs a pretzel form, and this space has none.  By
    default the row is skipped, and the report keeps its other rows."""
    m = parse_manifold("seifert(S2; 1; (2,1),(3,1),(5,1),(7,1),(11,1))")
    assert "mubar_vanishing" in ManifoldContext(m).table.names
    message = f"row mubar_vanishing does not apply to {m.describe()}"
    for only in (["mubar_vanishing"], ["torsion_square", "mubar_vanishing"]):
        with pytest.raises(RowError) as raised:
            full_report(m, only=only)
        assert str(raised.value) == message
    assert "mubar_vanishing" not in full_report(m, certificates=True).results


LENS_SUMMANDS = [(p, q) for p in range(2, 16) for q in range(1, p) if math.gcd(p, q) == 1]
# the four-summand sums of the golden corpus
FOUR_SUMMAND_SUMS = [
    [(3, 1), (3, 1), (3, 2), (3, 2)],
    [(3, 1), (5, 2), (3, 2), (5, 3)],
    [(8, 3), (8, 3), (8, 5), (8, 5)],
    [(9, 2), (9, 2), (9, 7), (9, 7)],
]


def certificates_disagree(summands) -> str | None:
    """What the certificate run of a lens sum finds wrong with the
    default run, or None."""
    m = LensSum(summands)
    decided = full_report(m)
    certified = full_report(m, certificates=True)
    if (decided.status, decided.reason) != (certified.status, certified.reason):
        return f"{certified.status} {certified.reason}"
    if certified.status == "CONFLICT":
        return certified.reason
    rows = list(certified.results.items())
    if rows[: len(decided.results)] != list(decided.results.items()):
        return "deciding checks differ"
    if certified.status == "EMBEDS":
        failed = [name for name, r in rows[len(decided.results) :] if r.verdict != "pass"]
        if len(rows) != 4 or failed:
            return f"certificate checks not passed: {failed}"
    return None


def test_certificate_searches_agree_with_the_theorem():
    """A lens sum is decided by torsion_square and lens_mirror_pairing;
    the double-subset searches run only for certificates.  With them
    run, a catalog hit plus a refutation would read CONFLICT, so this
    keeps that cross-check over every two-summand sum with p <= 15 and
    the corpus's four-summand sums."""
    sums = [list(pair) for pair in combinations_with_replacement(LENS_SUMMANDS, 2)]
    assert len(sums) == 2556
    found = {str(s): why for s in sums + FOUR_SUMMAND_SUMS if (why := certificates_disagree(s))}
    assert found == {}


def count_searches(monkeypatch, *more) -> list:
    """Wrap the three searches the check tables run, and the classify
    functions named in ``more``; each call appends the form it read."""
    searched = []

    def counting(search):
        def counted(tree, *args, **kwargs):
            searched.append(tree)
            return search(tree, *args, **kwargs)

        return counted

    for search in ("double_subset", "semidefinite", "nonorientable"):
        more += (f"{search}_obstruction",)
    for name in more:
        monkeypatch.setattr(classify, name, counting(getattr(classify, name)))
    return searched


def test_lens_sums_search_only_for_certificates(monkeypatch):
    """The default report of a lens sum runs no double-subset search.  An
    embeddable sum's certificate rows pass with a built pair and search
    nothing.  A refuted sum whose linking form is hyperbolic searches when
    certificates are asked for or one of its rows is named."""
    searched = count_searches(monkeypatch)
    m = LensSum([(8, 3), (8, 3), (8, 5), (8, 5), (21, 8), (21, 13)])
    r = full_report(m)
    assert list(r.results) == ["torsion_square", "lens_mirror_pairing"]
    assert (r.status, r.reason) == ("OBSTRUCTED", "obstruction:lens_mirror_pairing")
    assert searched == []

    for kwargs in ({"only": ["double_subset_mirror"]}, {"certificates": True}):
        r = full_report(LensSum([(3, 1), (3, 2)]), **kwargs)
        built = [res for name, res in r.results.items() if name.startswith("double_subset")]
        assert [res.verdict for res in built] == ["pass"] * len(built) and built, kwargs
        assert r.status == "EMBEDS" and searched == [], kwargs

    r = full_report(LensSum([(5, 1), (5, 1)]), only=["double_subset_mirror"])
    assert [(name, res.verdict) for name, res in r.results.items()] == [
        ("double_subset_mirror", "obstructed")
    ]
    assert len(searched) == 1


def test_twin_rows_hold_one_result():
    """A report keys each result by the row that ran it.  Twin rows that
    share a refutation or a built pair hold that one object: the linking
    form refutes both double-subset rows of lens(3,1) + lens(3,1), and
    lens(3,1) + lens(3,2) cites one built pair in both.  A default report
    keys the rows that ran, up to its first refutation."""
    for text, verdict in (("lens(3,1)+lens(3,1)", "obstructed"), ("lens(3,1)+lens(3,2)", "pass")):
        results = full_report(parse_manifold(text), certificates=True).results
        assert results["double_subset"] is results["double_subset_mirror"], text
        assert results["double_subset"].verdict == verdict, text
    default = full_report(parse_manifold("lens(3,1)+lens(3,1)")).results
    assert list(default) == ["torsion_square", "lens_mirror_pairing"]


@pytest.mark.parametrize(
    "text, twins",
    [
        # two weak pairs of even a that break the even-fibre clause: the pair
        # is searched for, not built, and none exists
        ("seifert(N(1); 0; (2,1),(2,1),(4,1),(4,-1))", "nonorientable_double_subset"),
        ("seifert(N(2); 0; (2,1),(2,1),(4,1),(4,-1))", "nonorientable_double_subset"),
        ("seifert(N(1); 0; (4,1),(4,-1),(6,1),(6,-1))", "nonorientable_double_subset"),
    ],
)
def test_mirror_row_on_the_same_tree_shares_its_twins_search(monkeypatch, text, twins):
    """Over N(h) a searched pass never shares its tree (none does with
    up to four fibres a <= 6), so the shared searches here refute, and
    both rows hold the one result."""
    searched = count_searches(monkeypatch)
    r = full_report(parse_manifold(text), certificates=True)
    assert len(searched) == 1
    twin, mirror = r.results.get(twins), r.results.get(twins + "_mirror")
    assert mirror is twin and twin.verdict == "obstructed"
    assert (mirror.verdict, mirror.notes, mirror.certificates) == (
        twin.verdict,
        twin.notes,
        twin.certificates,
    )


def test_sides_with_different_trees_run_two_searches(monkeypatch):
    """lens(5,1) has chain [5] and its mirror lens(5,4) chain [2,2,2,2]."""
    searched = count_searches(monkeypatch)
    full_report(LensSum([(5, 1), (5, 1)]), certificates=True)
    assert len(searched) == 2 and searched[0] != searched[1]


@pytest.mark.parametrize(
    "text",
    [
        # lens(5,2) has chain [3,2], its mirror lens(5,3) the reversed [2,3]
        "lens(5,2)+lens(5,2)",
        # the mirror lens(7,5)+lens(7,5)+lens(7,4)+lens(7,4) has the same
        # chains reversed and in another order
        "lens(7,2)+lens(7,2)+lens(7,3)+lens(7,3)",
        "seifert(N(1); 0; (5,2),(5,-3))",
        # weak pairs of two even a that break the even-fibre clause search
        "seifert(N(1); 0; (4,1),(4,-1),(2,1),(2,1))",
        # two self-mirror classes, L(65,8) and L(65,18), once each: the rule
        # fails, and the mirror row shares the search that refutes the twin
        "lens(65,8)+lens(65,18)",
    ],
)
def test_sides_with_isomorphic_plumbings_run_one_search(monkeypatch, text):
    """The canonical layout makes isomorphic plumbings one tree, so the
    mirror row shares its twin's search; on an embeddable lens sum, and
    on weak-paired legs that keep the even-fibre clause, both rows read
    the one built pair."""
    searched = count_searches(monkeypatch, "built_pass")
    full_report(parse_manifold(text), certificates=True)
    assert len(searched) == 1


NONORIENTABLE_ROWS = ("nonorientable_double_subset", "nonorientable_double_subset_mirror")


BUILT_NONORIENTABLE = (
    "cokernel is H + H twice over with small intersection, by a pair built from the mirror chains"
)


def test_weak_paired_legs_pass_with_a_built_pair_under_any_budget(monkeypatch):
    """Legs in weak complements that keep the even-fibre clause search
    nothing and build no plumbing: under a 3-node budget both
    non-orientable certificate rows pass with the built pair."""
    searched = count_searches(monkeypatch, "plumbing_tree")
    m = parse_manifold("seifert(N(1); 0; (3,1),(3,-1))")
    r = full_report(m, budget=3, certificates=True)
    rows = [(name, res.verdict, res.notes) for name, res in list(r.results.items())[3:]]
    assert rows == [(name, "pass", BUILT_NONORIENTABLE) for name in NONORIENTABLE_ROWS]
    assert searched == []
    assert (r.status, r.reason) == ("UNKNOWN", "no obstruction fired; no catalog entry")


def test_two_pairs_of_even_a_pass_with_a_built_pair(monkeypatch):
    """(2,1) four times pairs into two weak pairs of even a of one class.
    A' matches them cyclically, so the built pair's column subgroups meet
    in 2 elements: both certificate rows pass with it, and nothing is
    searched or plumbed.  A default report runs neither row."""
    searched = count_searches(monkeypatch, "plumbing_tree")
    m = parse_manifold("seifert(N(1); 0; (2,1),(2,1),(2,1),(2,1))")
    r = full_report(m, certificates=True)
    rows = [(name, res.verdict, res.notes) for name, res in list(r.results.items())[3:]]
    assert rows == [(name, "pass", BUILT_NONORIENTABLE) for name in NONORIENTABLE_ROWS]
    assert list(full_report(m).results) == [
        "torsion_square",
        "weak_complementary_pairs",
        "even_fibre_clause",
    ]
    assert searched == []


def test_an_undoubled_leg_group_is_refuted_at_any_size(monkeypatch):
    """The leg (-1, 10007) plumbs a chain of 10,006 vertices, past
    PRINTED_ROWS, but coker Q of the legs, Z/10007, is not H + H: the
    named row is refuted on it, not left unsearched, and no plumbing is
    built."""
    searched = count_searches(monkeypatch, "plumbing_tree")
    r = full_report(parse_manifold("seifert(N(1); 0; (10007,1))"), only=[NONORIENTABLE_ROWS[0]])
    notes = "|coker Q| = 10007 is not a perfect square"
    assert [(res.verdict, res.notes) for res in r.results.values()] == [("obstructed", notes)]
    assert searched == []


def test_only_runs_just_the_named_rows(monkeypatch):
    searched = count_searches(monkeypatch)
    m = LensSum([(8, 3), (8, 3), (8, 5), (8, 5), (21, 8), (21, 13)])
    r = full_report(m, only=["torsion_square"], certificates=True)
    assert list(r.results) == ["torsion_square"]
    assert searched == []


def catalog(m):
    return catalog_matches(ManifoldContext(m))


@pytest.mark.parametrize(
    "text, embeds",
    [
        ("seifert(O(1); 0; )", True),
        ("seifert(O(2); 0; )", True),
        # r = 1, so e = -1: a circle bundle over the torus that is no product
        ("seifert(O(1); 1; )", False),
    ],
)
def test_surface_times_circle_embeds(text, embeds):
    """Sigma_g x S^1 bounds Sigma_g x D^2 for an unknotted Sigma_g in S^3
    in S^4; a nonzero Euler number is no product."""
    report = full_report(parse_manifold(text))
    assert (report.status == "EMBEDS") == embeds, report.reason
    if embeds:
        assert report.reason == "catalog:odd_complementary_e0"


@pytest.mark.parametrize(
    "text, embeds",
    [
        ("seifert(N(1); 2; )", True),
        ("seifert(N(1); -2; )", True),
        ("seifert(N(2); 0; )", True),
        ("seifert(N(3); 2; )", True),
        # |r| > 2h: no RP^2 in S^4 has normal Euler number 4
        ("seifert(N(1); 4; )", False),
        # r = 0 is not 2h mod 4; this is RP^3 # RP^3
        ("seifert(N(1); 0; )", False),
        # a fibre takes the space out of the bundle family
        ("seifert(N(1); 2; (3,1),(3,-1))", False),
    ],
)
def test_nonorientable_surface_bundle_embeds(text, embeds):
    """The circle bundle over N_h of Euler number e bounds a tubular
    neighbourhood of N_h in S^4 for e in {-2h, -2h + 4, ..., 2h}
    (Whitney; Massey, Pacific J. Math. 31, 1969)."""
    report = full_report(parse_manifold(text))
    hit = report.reason == "catalog:nonorientable_surface_bundle"
    assert (report.status == "EMBEDS", hit) == (embeds, embeds), report.reason


def test_nonorientable_surface_bundles_are_never_refuted():
    """No row refutes a member of the family, on either orientation, for
    h <= 5, so the catalog entry can give no CONFLICT there; every r of
    the parity 2h outside the range is still UNKNOWN, save h = 1, r = 0,
    RP^3 # RP^3, refuted as lens(2,1) + lens(2,1) is; and every odd r is
    refuted by its Z/4 torsion."""
    statuses = Counter()
    for h in range(1, 6):
        for r in range(-2 * h - 4, 2 * h + 5):
            y = SeifertManifold(False, h, r, [])
            member = abs(r) <= 2 * h and (r - 2 * h) % 4 == 0
            for m in (y, mirror(y)):
                statuses[member, r % 2, full_report(m).status] += 1
    assert statuses == {
        (True, 0, "EMBEDS"): 40,
        (False, 0, "UNKNOWN"): 68,
        (False, 0, "OBSTRUCTED"): 2,
        (False, 1, "OBSTRUCTED"): 100,
    }


def test_rp3_sum_gets_one_verdict_in_both_presentations():
    """seifert(N(1); 0; ) and its mirror are RP^3 # RP^3, so each gets the
    status and reason of lens(2,1) + lens(2,1)."""
    y = parse_manifold("seifert(N(1); 0; )")
    spaces = (y, mirror(y), parse_manifold("lens(2,1) + lens(2,1)"))
    reports = [full_report(m, certificates=c) for m in spaces for c in (False, True)]
    assert {(r.status, r.reason) for r in reports} == {
        ("OBSTRUCTED", "obstruction:lens_mirror_pairing")
    }


def test_q8_space_gets_one_verdict_in_both_presentations():
    """seifert(N(1); 2; ) has pi_1 = <v, h | v^2 = h^2, v h v^-1 = h^-1>
    = Q8, so it is S^3/Q8, the cover of pretzel(2,-2,2)."""
    reports = [full_report(parse_manifold(t)) for t in ("seifert(N(1); 2; )", "pretzel(2,-2,2)")]
    assert {r.status for r in reports} == {"EMBEDS"}
    printed = [invariants_json(r) for r in reports]
    assert {(inv["b1"], tuple(inv["torsion_factors"])) for inv in printed} == {(0, (2, 2))}


def test_catalog_consistency():
    assert catalog(LensSum([(3, 1), (3, 2)]))
    assert not catalog(LensSum([(2, 1), (2, 1)]))
    assert catalog(PretzelCover([3, -3, 3]))
    assert not catalog(PretzelCover([3, -5, -8]))
    y = SeifertManifold(True, 0, 1, [(4, 1), (4, 1), (12, 5)])  # rewritten form
    assert any(e.name == "surgery_example_4_4_12" for e in catalog(y))


@pytest.mark.parametrize(
    "manifold, builds",
    [
        # the definite side serves double_subset and mu-bar
        (PretzelCover([3, 5, 7]), 1),
        (PretzelCover([-3, -5, -7]), 1),
        (SeifertManifold(True, 0, 0, [(3, 1), (5, 1), (7, 1)]), 1),
        # e = 0, refuted by complementary_pairs: the '+' side serves mu-bar
        # and semidefinite_subset, and the mirror search builds the '-' side
        # once
        (PretzelCover([-2, 3, 6]), 2),
        # e = 0 complementary pairs: the semidefinite rows are built, so only
        # mu-bar reads a side
        (PretzelCover([2, -2, 2, -2]), 1),
    ],
)
def test_report_builds_each_side_once(monkeypatch, manifold, builds):
    """Every row runs, certificates too, and builds each side it reads
    once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return chains(*args)

    chains = plumbing._chains
    monkeypatch.setattr(plumbing, "_chains", counted)
    full_report(manifold, certificates=True)
    assert len(calls) == builds


@pytest.mark.parametrize(
    "text",
    [
        "pretzel(2,-2,3,-3)",
        "seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))",
        "seifert(S2; 0; (4,1),(4,-1),(6,1),(6,-1))",
    ],
)
def test_mirror_star_equal_to_its_twin_takes_one_inertia(monkeypatch, text):
    """e = 0 complementary pairs: the two sides' stars are equal trees.
    A report with certificates takes at most one inertia, as it reads at
    most the '+' side: both semidefinite rows are built, and only
    mubar_vanishing, where a pretzel form exists, reads a tree."""
    taken = []

    def counted(weights, neighbours):
        taken.append(weights)
        return inertia(weights, neighbours)

    inertia = intlinalg.signature_triple
    monkeypatch.setattr(intlinalg, "signature_triple", counted)
    full_report(parse_manifold(text), certificates=True)
    assert len(taken) <= 1
    ctx = ManifoldContext(parse_manifold(text))
    assert ctx.tree("+") == ctx.tree("-")


@pytest.mark.parametrize(
    "manifold, groups",
    [
        # |H_1| = 71 is not a square, so double_subset is refuted on H_1
        # with no tree
        (PretzelCover([3, 5, 7]), 1),
        # e = 0: the semi-definite searches need no group
        (PretzelCover([2, -2, 3, -3]), 1),
        # over N(h), H_1 and the legs' group, whether the two sides'
        # forests are one tree or two
        (SeifertManifold(False, 1, 0, [(3, 1), (3, -1)]), 2),
        (SeifertManifold(False, 1, 0, [(3, 1), (3, -2)]), 2),
        # a lens sum that is its own mirror: both double-subset rows
        # search H_1 through one tree
        (LensSum([(3, 1), (3, 2)]), 1),
        # over N(h) with no legs, H_1 alone: the empty form reads no group
        (SeifertManifold(False, 1, 1, []), 1),
    ],
)
def test_report_takes_each_cokernel_once(monkeypatch, manifold, groups):
    """A report presents each group once, on chain ends (``chain_group``)
    or over N(h) on one crosscap generator (``first_homology``), and its
    searches project onto that group through each tree's lift: H_1, and
    over N(h) the legs' group as well, however many sides search.  The
    count is of the groups ``manifolds`` makes; a copy made by
    ``dataclasses.replace`` is not one."""
    taken = []
    group = manifolds.FiniteAbelianGroup
    monkeypatch.setattr(
        manifolds, "FiniteAbelianGroup", lambda *args: taken.append(args) or group(*args)
    )
    full_report(manifold, certificates=True)
    assert len(taken) == groups


@pytest.mark.parametrize(
    "text, smith_forms",
    [
        # refuted by |H_1| = 71, and an e = 0 space that embeds: no row
        # reads a generator
        ("pretzel(3,5,7)", 0),
        ("pretzel(2,-2,3,-3)", 0),
        # a mirror pair, whose rows are built, and a lens sum refuted by
        # its linking form, read on the chain ends
        ("lens(3,1)+lens(3,2)", 0),
        ("lens(8,3)+lens(8,3)+lens(8,5)+lens(8,5)+lens(21,8)+lens(21,13)", 0),
        # the linking form on a star reads H_1's generators, and refutes
        # both rows (a search's one is pinned in test_obstructions.py)
        ("pretzel(-2,2,4)", 1),
        # over N(h), H_1 is read in closed form too; the second input's
        # search finds no subset, so it projects nothing onto the legs' group
        ("seifert(N(1);1;)", 0),
        ("seifert(N(1);0;(3,1),(3,-2))", 0),
    ],
)
def test_report_takes_a_smith_form_only_where_it_reads_generators(monkeypatch, text, smith_forms):
    """A group read in closed form takes its Smith form on the first read
    of its generators or torsion coordinates, and only then."""
    taken = []
    smith_normal_form = intlinalg.smith_normal_form
    monkeypatch.setattr(
        intlinalg, "smith_normal_form", lambda M: taken.append(M) or smith_normal_form(M)
    )
    full_report(parse_manifold(text), certificates=True)
    assert len(taken) == smith_forms


def test_tree_cokernel_is_the_torsion_of_first_homology():
    """Over an orientable base, coker Q of a side's definite plumbing, or
    of either side's semi-definite one when e = 0, is H_1 less the 2 genus
    free summands of the base (Neumann, Trans. AMS 268, 1981).  The
    tree's lift carries it onto the torsion of ``first_homology``: every
    column of Q projects to 0 and the vertex classes generate.  Where
    e != 0, |coker Q| = |e| a_1 ... a_n, the torsion's order; where e = 0
    the dense Smith form gives the torsion's factors and free rank 1.
    This runs on every 3- and 4-strand pretzel cover with |a_i| <= 7,
    every space of the S5 census sweep with its genus-1 and genus-2
    twins, and every space of genus 0 or 1 with 0, 1 or 2 fibres a <= 7
    and r in [-3, 3]."""
    strands = [a for a in range(-7, 8) if a]
    covers = [PretzelCover(s) for n in (3, 4) for s in combinations_with_replacement(strands, n)]
    s5 = sweep_s5()
    spaces = [SeifertManifold(True, g, y.r, y.invariants) for g in (0, 1, 2) for y in s5]
    spaces += [
        SeifertManifold(True, g, r, invs)
        for g in (0, 1)
        for n in range(3)
        for invs in combinations_with_replacement(fibres(7), n)
        for r in range(-3, 4)
    ]
    kinds = Counter()
    for m in covers + spaces:
        y = m if isinstance(m, SeifertManifold) else pretzel_to_seifert(m)
        e = euler_invariant(y)
        b1, torsion = first_homology(y)
        assert b1 == 2 * y.genus + (e == 0), m.describe()
        for side in ("+", "-") if e == 0 else ("-" if e < 0 else "+",):
            tree = plumbing_tree(y, side)
            G = replace(torsion, lift=tree.lift)
            assert not any(map(any, G.project_columns(dense(tree)))), m.describe()
            vertices = G.project_columns(identity_matrix(tree.size))
            assert subgroup_from_generators(G, vertices).order == G.order, m.describe()
            if e:
                assert G.order == abs(e * math.prod(a for a, _ in y.invariants)), m.describe()
            else:
                free, Q = cokernel(dense(tree))
                assert (free, Q.factors) == (1, G.factors), m.describe()
        kinds[e == 0, y.genus > 0, len(y.invariants) <= 2] += 1
    # (e = 0, genus >= 1, at most two fibres): inputs
    assert kinds == {
        (False, False, False): 3235,
        (False, False, True): 1661,
        (False, True, False): 1634,
        (False, True, True): 1187,
        (True, False, False): 47,
        (True, False, True): 19,
        (True, True, False): 16,
        (True, True, True): 10,
    }


@pytest.mark.parametrize(
    "manifold, only, plumbings",
    [
        # |H_1| = 71 is not a square: torsion_square refutes it, and the
        # report stops before a row builds a tree
        (PretzelCover([3, 5, 7]), None, 0),
        (SeifertManifold(True, 1, 0, [(3, 1), (5, 1), (7, 1)]), None, 0),
        (PretzelCover([3, 5, 7]), ["torsion_square"], 0),
        (PretzelCover([3, 5, 7]), ["torsion_square", "double_subset"], 0),
        # other classes: e = 0 (only mu-bar builds a tree; the semidefinite
        # searches are certificates), an embeddable lens sum (its built
        # pair reads no tree), a non-orientable base with two pairs of even
        # a (its searched rows are certificates, built when they run)
        (PretzelCover([2, -2, 3, -3]), None, 1),
        (LensSum([(3, 1), (3, 2)]), ["double_subset", "double_subset_mirror"], 0),
        (SeifertManifold(False, 1, 0, [(2, 1)] * 4), None, 0),
        # H_1 = Z/15: both certificate rows of the lens sum are refuted on it
        (LensSum([(3, 1), (5, 1)]), ["double_subset", "double_subset_mirror"], 0),
        # torsion Z/3 + Z/3: double_subset searches the definite tree
        (PretzelCover([3, -3, 3]), None, 1),
        # torsion Z/2 + Z/2 pairs up, but the linking form, read on H_1's
        # chain ends, is odd; with no pretzel form mu-bar builds no tree
        (SeifertManifold(True, 1, 1, [(2, 1), (2, 1), (4, 1)]), None, 0),
        # Z/8 + Z/8 + Z/168 + Z/168, odd on Z/8: both rows refuted on H_1
        (
            LensSum([(8, 3), (8, 3), (8, 5), (8, 5), (21, 8), (21, 13)]),
            ["double_subset", "double_subset_mirror"],
            0,
        ),
        # weak pairs with no even a: both rows read the built pair
        (SeifertManifold(False, 1, 0, [(3, 1), (3, -1)]), None, 0),
        # two pairs of even a that break the even-fibre clause: both named
        # rows search one tree
        (SeifertManifold(False, 1, 0, [(2, 1), (2, 1), (4, 1), (4, -1)]), NONORIENTABLE_ROWS, 2),
    ],
)
def test_report_reads_h1_once_from_first_homology(monkeypatch, manifold, only, plumbings):
    """Every report takes H_1 from one ``first_homology`` call, whatever
    rows run, and a double-subset row refuted on its order or factors
    builds no plumbing: ``plumbings`` counts the ``plumbing_tree`` calls."""
    homologies, built = [], []

    def counted(m):
        homologies.append(m)
        return homology(m)

    def counted_tree(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    homology, build = classify.first_homology, classify.plumbing_tree
    monkeypatch.setattr(classify, "first_homology", counted)
    monkeypatch.setattr(classify, "plumbing_tree", counted_tree)
    report = full_report(manifold, only=only)
    assert (len(homologies), len(built)) == (1, plumbings)
    if isinstance(manifold, PretzelCover):
        manifold = pretzel_to_seifert(manifold)
    b1, torsion = homology(manifold)
    printed = invariants_json(report)
    assert (printed["b1"], printed["torsion_factors"]) == (b1, list(torsion.factors))


def test_long_even_lens_sum_is_refuted_with_no_plumbing(monkeypatch):
    """lens(10^8, 10^8 - 1) + lens(10^8, 1) plumbs a chain of 10^8 - 1
    vertices.  H_1 = Z/10^8 + Z/10^8 pairs up, but its linking form, read
    on the chain ends, is odd, so both double-subset rows are refuted with
    no plumbing built."""

    def no_tree(*args, **kwargs):
        raise AssertionError("a plumbing was built")

    monkeypatch.setattr(classify, "plumbing_tree", no_tree)
    m = LensSum([(10**8, 10**8 - 1), (10**8, 1)])
    report = full_report(m, only=["double_subset", "double_subset_mirror"])
    odd = "the linking form of coker Q is odd on its factor Z/100000000, so no splitting pair exists"
    assert [(name, r.verdict, r.notes) for name, r in report.results.items()] == [
        ("double_subset", "obstructed", odd),
        ("double_subset_mirror", "obstructed", odd),
    ]


def test_a_long_refuted_side_is_not_searched(monkeypatch):
    """lens(1009,1008) + lens(1009,1008) has |H_1| = 1009^2 and a
    hyperbolic linking form (1009 = 1 mod 4), so H_1 refutes neither
    certificate row.  Its '+' side has 2 x 1,008 = 2,016 rows, past
    PRINTED_ROWS: that row is inconclusive and builds no '+' plumbing.
    The mirror side, two 1-vertex chains, still searches and is
    obstructed, and lens_mirror_pairing decides the status."""
    built = []

    def counted_tree(m, side="+", **kwargs):
        built.append(side)
        return build(m, side, **kwargs)

    build = classify.plumbing_tree
    monkeypatch.setattr(classify, "plumbing_tree", counted_tree)
    report = full_report(LensSum([(1009, 1008), (1009, 1008)]), certificates=True)
    assert report.status == "OBSTRUCTED"
    assert [(name, r.verdict) for name, r in list(report.results.items())[2:]] == [
        ("double_subset", "inconclusive"),
        ("double_subset_mirror", "obstructed"),
    ]
    assert report.results["double_subset"].notes == "its 2016 rows, past 1000, are not searched"
    assert built == ["-"]


def test_an_embeddable_lens_sum_takes_its_mirror_matching_once(monkeypatch):
    """lens_mirror_pairing, both double-subset rows and the
    mirror_lens_sum catalog entry read one fault, so a certificate report
    of an embeddable lens sum matches its summands into mirrors once."""
    calls = count_calls(monkeypatch, "_mirror_matched")
    report = full_report(LensSum([(7, 2), (7, 5), (5, 2), (5, 2)]), certificates=True)
    assert (report.status, report.reason) == ("EMBEDS", "catalog:mirror_lens_sum")
    assert [r.verdict for r in report.results.values()] == ["pass"] * 4
    assert len(calls) == 1


def test_both_double_subset_rows_read_one_linking_form(monkeypatch):
    """The H_1 refutation of the double-subset rows reads no side, so a
    report with both rows takes the linking form once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return linking(*args)

    linking = classify.odd_linking_factor
    monkeypatch.setattr(classify, "odd_linking_factor", counted)
    report = full_report(LensSum([(8, 3), (8, 5)]), certificates=True)
    assert len(calls) == 1
    assert [(name, r.verdict) for name, r in list(report.results.items())[-2:]] == [
        ("double_subset", "obstructed"),
        ("double_subset_mirror", "obstructed"),
    ]


def count_calls(monkeypatch, name) -> list:
    """Wrap the classify function ``name``; each call appends its args."""
    calls = []
    inner = getattr(classify, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(classify, name, counted)
    return calls


def test_a_report_without_keys_keys_no_family_member(monkeypatch):
    """A lens sum has no Seifert keys, so its report keys no member of
    a pretzel family."""
    calls = count_calls(monkeypatch, "_strand_key")
    assert full_report(LensSum([(3, 1), (3, 2)])).status == "EMBEDS"
    assert calls == []


def test_a_report_reads_the_family_member_once(monkeypatch):
    """The catalog and the merge rule read one cached family member."""
    calls = count_calls(monkeypatch, "_family_member")
    report = full_report(PretzelCover([3, -5, -8]))
    assert report.reason == f"open_family:{classify.OPEN_FAMILY}"
    assert len(calls) == 1


def test_report_takes_each_strand_form_list_once():
    """Family membership is read off the key and k off H_1, so the
    pretzel and the Seifert input of one cover give the same reason and
    the same mu-bar certificate."""
    cover = PretzelCover([3, -5, -8])
    reports = [full_report(cover), full_report(pretzel_to_seifert(cover))]
    assert {r.reason for r in reports} == {"open_family:pretzel(2l-1,-2l-1,-2l^2)"}
    first, second = (r.results.get("mubar_vanishing") for r in reports)
    assert first.certificates == second.certificates


def test_many_fibres_have_no_strand_forms():
    """A pretzel cover has at most 4 fibres, so a 30-fibre space finds no
    family and no link component count without walking 2^30 strand
    choices."""
    from time import process_time

    m = SeifertManifold(True, 0, 1, [(2, 1)] * 15 + [(3, -1)] * 15)
    start = process_time()
    ctx = ManifoldContext(m)
    assert ctx.pretzel_family is None
    assert ctx.link_components is None
    assert process_time() - start < 0.1
