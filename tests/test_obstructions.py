import pytest

from s4embed.intlinalg import cokernel
from s4embed.lattice import LatticeSubset, enumerate_subsets
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold, pretzel_to_seifert
from s4embed.obstructions import (
    char_vector_criterion,
    double_subset_obstruction,
    nonorientable_obstruction,
    semidefinite_obstruction,
    subset_column_subgroup,
)
from s4embed.plumbing import lens_chains, plumbing_tree, seifert_leg_forest


def lens_Q(*summands):
    return lens_chains(LensSum(list(summands))).incidence_matrix()


def test_double_subset_l31_l32_passes():
    res = double_subset_obstruction(lens_Q((3, 1), (3, 2)))
    assert res.verdict == "pass"
    (A1, A2), (H1, H2) = res.certificates
    assert H1.order == H2.order == 3
    assert H1 != H2


def test_double_subset_l21_l21_obstructed():
    res = double_subset_obstruction(lens_Q((2, 1), (2, 1)))
    assert res.verdict == "obstructed"


def test_double_subset_identity_passes():
    Q = [[-1, 0], [0, -1]]
    res = double_subset_obstruction(Q)
    assert res.verdict == "pass"
    A1, A2 = res.certificates[0]
    assert A1 is A2  # trivial cokernel permits a repeated factorisation


def test_double_subset_nonsquare_order_shortcut():
    res = double_subset_obstruction(lens_Q((3, 1)))
    assert res.verdict == "obstructed"
    assert "perfect square" in res.notes


def test_double_subset_budget_inconclusive():
    res = double_subset_obstruction(lens_Q((9, 2), (9, 7)), budget=3)
    assert res.verdict == "inconclusive"


def test_semidefinite_examples():
    res = semidefinite_obstruction([[-1, 1], [1, -1]])
    assert res.verdict == "pass"

    tree = plumbing_tree(PretzelCover([2, -2, 2, -2]))
    res2 = semidefinite_obstruction(tree.incidence_matrix())
    assert res2.verdict == "pass"

    tree3 = plumbing_tree(PretzelCover([4, -4, 2, -2]))
    res3 = semidefinite_obstruction(tree3.incidence_matrix())
    assert res3.verdict in ("pass", "obstructed")  # recorded; mu-bar decides

    with pytest.raises(ValueError):
        semidefinite_obstruction([[-2]])


def test_nonorientable_examples():
    y = SeifertManifold(False, 1, 0, [(3, 1), (3, -1)])
    Q = seifert_leg_forest(y).incidence_matrix()
    res = nonorientable_obstruction(Q)
    assert res.verdict == "pass"

    y2 = SeifertManifold(False, 1, 0, [(3, 1), (2, 1)])
    Q2 = seifert_leg_forest(y2).incidence_matrix()
    res2 = nonorientable_obstruction(Q2)
    assert res2.verdict == "obstructed"  # |coker| = 6 is not a square

    res3 = nonorientable_obstruction([])
    assert res3.verdict == "pass"


def column_subgroup(A: LatticeSubset, Q):
    """H = im A / im Q inside coker Q."""
    return subset_column_subgroup(cokernel(Q), A)


def test_char_vector_criterion_identity():
    A = LatticeSubset(((1, 0), (0, 1)), "square")
    assert char_vector_criterion(column_subgroup(A, [[-1, 0], [0, -1]]))


def test_char_vector_criterion_3_on_minus9():
    A = LatticeSubset(((3,),), "square")
    assert not char_vector_criterion(column_subgroup(A, [[-9]]))


def test_char_vector_criterion_rejects_even_order():
    A = LatticeSubset(((2,),), "square")
    with pytest.raises(ValueError):
        char_vector_criterion(column_subgroup(A, [[-4]]))


def test_char_vector_criterion_filters_lambda():
    """For the two-positive-strand family the filter keeps exactly the
    factorisations with the column pattern of -c = a or -c = b."""
    # Y(3, 5, -c) with c = 4a + 9b = 57: lambda = 2 subset exists but fails
    cover = PretzelCover([3, 5, -57])
    seif = pretzel_to_seifert(cover)
    from s4embed.manifolds import euler_invariant

    assert euler_invariant(seif) > 0
    Q = plumbing_tree(seif).incidence_matrix()
    res = enumerate_subsets(Q)
    assert res.complete and res.subsets
    assert all(not char_vector_criterion(column_subgroup(s, Q)) for s in res.subsets)


def test_pass_certificates_verify():
    from s4embed.lattice import verify_factorization

    Q = lens_Q((3, 1), (3, 2))
    res = double_subset_obstruction(Q)
    (A1, A2), (H1, H2) = res.certificates
    assert verify_factorization(A1, Q) and verify_factorization(A2, Q)
    assert H1.order * H2.order == 9


def test_obstructed_monotone_under_budget():
    Q = lens_Q((5, 1), (5, 1))
    small = double_subset_obstruction(Q, budget=10)
    big = double_subset_obstruction(Q, budget=10**7)
    assert big.verdict == "obstructed"
    assert small.verdict in ("inconclusive", "obstructed")
