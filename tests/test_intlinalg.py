import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s4embed.intlinalg import (
    FiniteAbelianGroup,
    cokernel,
    direct_sum_test,
    doubled_factors,
    hermite_row_basis,
    identity_matrix,
    signature_triple,
    smith_normal_form,
    subgroup_from_generators,
)
from s4embed.classify import ManifoldContext
from s4embed.manifolds import (
    LensSum,
    SeifertManifold,
    chain_ends,
    euler_invariant,
    first_homology,
)
from s4embed.obstructions import linking_form, odd_linking_factor
from s4embed.plumbing import PlumbingTree, plumbing_tree
from s4embed.spin import wu_sets
from test_census import mirror


def chain_matrix(weights):
    n = len(weights)
    Q = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        Q[i][i] = w
    for i in range(n - 1):
        Q[i][i + 1] = Q[i + 1][i] = 1
    return Q


def mat_mul(A, B) -> list[list[int]]:
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(list(r) == list(s) for r, s in zip(A, B))


# dense oracles for the sparse elimination and the Wu-set pass


def determinant(M) -> int:
    """Exact determinant by fraction-free Bareiss elimination; the oracle
    for the order of the group a tree's lift projects onto."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def solve_mod2(M, b) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """All solutions of M x = b over GF(2).

    Returns (particular solution, kernel basis), or None when the system
    is inconsistent.  The full solution set is the particular solution
    plus every GF(2)-combination of the kernel vectors.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[x & 1 for x in row] for row in M]
    y = [x & 1 for x in b]
    piv_row_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        y[r], y[piv] = y[piv], y[r]
        for i in range(m):
            if i != r and A[i][c]:
                A[i] = [p ^ q for p, q in zip(A[i], A[r])]
                y[i] ^= y[r]
        piv_row_of_col[c] = r
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if y[i] and not any(A[i]):
            return None
    x = [0] * n
    for c, i in piv_row_of_col.items():
        x[c] = y[i]
    free = [c for c in range(n) if c not in piv_row_of_col]
    kernel = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for c, i in piv_row_of_col.items():
            v[c] = A[i][f]
        kernel.append(tuple(v))
    return tuple(x), kernel


def mod2_solution_set(M, b) -> list[tuple[int, ...]]:
    """Materialised solution set of M x = b over GF(2), sorted."""
    sol = solve_mod2(M, b)
    if sol is None:
        return []
    x0, kernel = sol
    out = set()
    for mask in range(1 << len(kernel)):
        v = list(x0)
        for t, k in enumerate(kernel):
            if mask >> t & 1:
                v = [p ^ q for p, q in zip(v, k)]
        out.add(tuple(v))
    return sorted(out)


def sparse(M):
    """(diagonal, neighbour lists) of a dense symmetric matrix whose
    off-diagonal entries are 0 or 1, the input of ``signature_triple``."""
    n = len(M)
    assert all(M[i][j] in (0, 1) for i in range(n) for j in range(n) if i != j)
    neighbours = [[j for j in range(n) if j != i and M[i][j]] for i in range(n)]
    return [M[i][i] for i in range(n)], neighbours


def inertia(M) -> tuple[int, int, int]:
    return signature_triple(*sparse(M))


E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]


def e8_matrix():
    Q = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in E8_EDGES:
        Q[i][j] = Q[j][i] = 1
    return Q


def group_from_factors(factors) -> FiniteAbelianGroup:
    """Z/d1 + ... + Z/dk, given the divisibility chain d1 | d2 | ... with
    every di >= 2, as the cokernel of diag(d1, ..., dk)."""
    factors = tuple(int(d) for d in factors)
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ValueError("invariant factors must form a divisibility chain")
    _, G = cokernel([[d * (i == j) for j in range(len(factors))] for i, d in enumerate(factors)])
    assert G.factors == factors
    return G


def check_snf(M):
    U, D, V = smith_normal_form(M)
    assert mat_eq(mat_mul(mat_mul(U, M), V), D)
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_hand_example():
    diag = check_snf([[-2, 1], [1, -2]])
    assert diag == [1, 3]


def test_snf_identity_and_zero():
    assert check_snf(identity_matrix(3)) == [1, 1, 1]
    assert check_snf([[0]]) == [0]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        diag = check_snf(M)
        # invariant-factor product matches the determinant for square M
        if n == m:
            assert math.prod(diag) == abs(determinant(M))


def test_snf_matches_determinantal_divisors():
    """Independent of the algorithm: d_1 ... d_k is the gcd of all k x k
    minors of M, so 0 past its rank.  Checked on 300 random matrices up
    to 5 x 5 with entries in [-20, 20], about a third of them of less
    than full rank: a row is the sum of two others (or twice one), and
    half of all matrices are transposed."""
    rng = random.Random(33)
    deficient = 0
    for _ in range(300):
        n, m = sorted((rng.randint(1, 5), rng.randint(1, 5)))
        M = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            a, *others = rng.sample(range(n), n)
            b, c = rng.choice(others), rng.choice(others)
            M[b], M[c] = [x // 2 for x in M[b]], [x // 2 for x in M[c]]
            M[a] = [x + y for x, y in zip(M[b], M[c])]
        if rng.random() < 0.5:
            M, n, m = [list(col) for col in zip(*M)], m, n
        diag = check_snf(M)
        for k in range(1, min(n, m) + 1):
            minors = (
                determinant([[M[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(m), k)
            )
            assert math.prod(diag[:k]) == math.gcd(*minors), M
        deficient += 0 in diag
    assert deficient >= 60


def test_cokernel_single_lens():
    free, G = cokernel([[-3]])
    assert G.factors == (3,)
    assert free == 0
    assert G.order == 3


def test_cokernel_lens_sum_chain():
    Q = [
        [-3, 0, 0],
        [0, -2, 1],
        [0, 1, -2],
    ]
    _, G = cokernel(Q)
    assert G.factors == (3, 3)
    assert abs(determinant(Q)) == 9


def test_cokernel_rank_one_semidefinite():
    free, G = cokernel([[-1, 1], [1, -1]])
    assert free == 1
    assert G.factors == ()


def test_cokernel_projection_kills_image():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if determinant(M) == 0:
            continue
        _, G = cokernel(M)
        assert all(c == 0 for col in G.project_columns(M) for c in col)


def test_subgroup_orders():
    G = group_from_factors((3, 3))
    H = subgroup_from_generators(G, [(1, 1)])
    assert H.order == 3
    assert H.factors == (3,)

    trivial = subgroup_from_generators(G, [])
    assert trivial.order == 1
    assert trivial.factors == ()

    G9 = group_from_factors((9,))
    H3 = subgroup_from_generators(G9, [(3,)])
    assert H3.order == 3
    assert H3.factors == (3,)


def contains(H, coords) -> bool:
    """Membership in H, by reducing the element along H's lift basis."""
    v = list(H.parent.reduce(coords))
    for row in H.basis:
        lead = next(j for j, x in enumerate(row) if x)
        if v[lead] % row[lead]:
            return False
        q = v[lead] // row[lead]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def test_subgroup_order_divides_group_order():
    rng = random.Random(11)
    for _ in range(40):
        factors = sorted(rng.choice([2, 2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(1, 3)))
        chain = []
        for d in factors:
            chain.append(d if not chain else d * chain[-1] // math.gcd(d, chain[-1]))
        G = group_from_factors(chain)
        gens = [tuple(rng.randrange(d) for d in chain) for _ in range(rng.randint(0, 3))]
        H = subgroup_from_generators(G, gens)
        assert G.order % H.order == 0
        for g in gens:
            assert contains(H, g)


def test_direct_sum_test_cases():
    G = group_from_factors((3, 3))
    H1 = subgroup_from_generators(G, [(1, 0)])
    H2 = subgroup_from_generators(G, [(0, 1)])
    assert direct_sum_test(G, H1, H2) == (True, True, 1)

    Hd = subgroup_from_generators(G, [(1, 1)])
    assert direct_sum_test(G, Hd, Hd) == (False, True, 3)

    G9 = group_from_factors((9,))
    A = subgroup_from_generators(G9, [(3,)])
    B = subgroup_from_generators(G9, [(1,)])
    assert direct_sum_test(G9, A, B) == (False, False, 3)


def test_subgroup_sum_and_equality():
    G = group_from_factors((4, 8))
    H1 = subgroup_from_generators(G, [(2, 0)])
    H2 = subgroup_from_generators(G, [(0, 4)])
    S = subgroup_from_generators(G, [(2, 0), (0, 4)])
    assert S.order == 4
    assert direct_sum_test(G, H1, H2)[2] == H1.order * H2.order // S.order == 1
    assert subgroup_from_generators(G, [(2, 4), (0, 4)]).basis == S.basis


def random_group(rng) -> FiniteAbelianGroup:
    """Z/d1 + ... + Z/dk with d1 | d2 | ... and order at most 200."""
    factors = [rng.randint(2, 12)]
    while rng.random() < 0.6:
        d = factors[-1] * rng.randint(1, 4)
        if math.prod(factors) * d > 200:
            break
        factors.append(d)
    return group_from_factors(factors)


def random_generators(rng, G) -> list[tuple[int, ...]]:
    """Zero to three elements; coordinates scaled by 2 or 3 now and then,
    so that small subgroups turn up."""
    return [
        tuple(rng.choice([1, 1, 2, 3]) * rng.randrange(d) % d for d in G.factors)
        for _ in range(rng.randint(0, 3))
    ]


def span(G, gens) -> set[tuple[int, ...]]:
    """The subgroup generated by gens, closed up element by element."""
    zero = (0,) * len(G.factors)
    seen, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b, d in zip(x, g, G.factors))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def order_histogram(elements, factors) -> Counter:
    """How many elements have each order; this fixes a finite abelian
    group up to isomorphism."""
    return Counter(
        math.lcm(*(d // math.gcd(x, d) for x, d in zip(g, factors))) for g in elements
    )


def coordinate_halves(rng, G) -> list[list[tuple[int, ...]]]:
    """Generators of two subgroups whose orders multiply to |G|: the sum
    of a random set of the cyclic factors and the sum of the others, the
    second sheared by elements of the first of no larger order, so the
    two still meet in 0 and their orders still multiply to |G|."""
    k = len(G.factors)
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    first = [i for i in range(k) if rng.random() < 0.5]
    rest = [i for i in range(k) if i not in first]
    shear = []
    for i in rest:
        g = list(unit[i])
        for j in first:
            if rng.random() < 0.5 and G.factors[j] <= G.factors[i]:
                g[j] = rng.randrange(G.factors[j])
        shear.append(tuple(g))
    return [[unit[i] for i in first], shear]


def test_subgroup_arithmetic_against_brute_force():
    """Order, membership, structure and the direct-sum test agree with
    enumerating every element of small groups.  The join reduces the
    second subgroup's lift basis into the first's, so every ordered pair is tested,
    self-pairs included, and pairs with |H1||H2| = |G| are built on
    purpose."""
    rng = random.Random(29)
    direct = full = 0
    for _ in range(150):
        G = random_group(rng)
        elements = list(itertools.product(*(range(d) for d in G.factors)))
        subgroups = []
        for gens in [random_generators(rng, G) for _ in range(3)] + coordinate_halves(rng, G):
            H = subgroup_from_generators(G, gens)
            S = span(G, gens)
            assert H.order == len(S)
            assert all(contains(H, x) == (x in S) for x in elements)
            abstract = itertools.product(*(range(d) for d in H.factors))
            assert order_histogram(S, G.factors) == order_histogram(abstract, H.factors)
            subgroups.append((H, S))
        for (H1, S1), (H2, S2) in itertools.product(subgroups, repeat=2):
            is_direct, isomorphic, meet = direct_sum_test(G, H1, H2)
            assert meet == len(S1 & S2)
            assert is_direct == (meet == 1 and len(S1) * len(S2) == G.order)
            same_orders = order_histogram(S1, G.factors) == order_histogram(S2, G.factors)
            assert isomorphic == same_orders
            direct += is_direct
            full += len(S1) * len(S2) == G.order
    assert direct >= 500 and full - direct >= 50


def test_doubled_factors():
    assert doubled_factors((3,)) == (3, 3)
    assert doubled_factors((2, 4)) == (2, 2, 4, 4)


def test_solve_mod2_spec_cases():
    assert mod2_solution_set([[-2]], [-2]) == [(0,), (1,)]
    assert mod2_solution_set([[-3]], [-3]) == [(1,)]
    Q = e8_matrix()
    sols = mod2_solution_set(Q, [w for w in [-2] * 8])
    assert sols == [(0,) * 8]


def test_solve_mod2_inconsistent():
    assert solve_mod2([[2, 0], [0, 2]], [1, 0]) is None


def test_solve_mod2_random_consistency():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        x = [rng.randint(0, 1) for _ in range(m)]
        b = [sum(r * v for r, v in zip(row, x)) % 2 for row in M]
        sols = mod2_solution_set(M, b)
        assert tuple(x) in sols
        kernel_dim = len(solve_mod2(M, b)[1])
        assert len(sols) == 2**kernel_dim
        for s in sols:
            assert all(
                sum(r * v for r, v in zip(row, s)) % 2 == bb % 2
                for row, bb in zip(M, b)
            )


def test_signature_and_definiteness():
    assert signature_triple(*sparse(e8_matrix())) == (8, 0, 0)
    assert cokernel(e8_matrix())[1].order == 1
    assert PlumbingTree((-2, -2), ((0, 1),)).definiteness == ("negative_definite", 0)
    assert PlumbingTree((-1, -1), ((0, 1),)).definiteness == ("negative_semidefinite", 1)
    assert PlumbingTree((1,), ()).definiteness == ("indefinite", 0)
    assert PlumbingTree((), ()).definiteness == ("negative_definite", 0)
    assert signature_triple([0, 0], [[1], [0]]) == (1, 0, 1)
    assert cokernel([[0, 1], [1, 0]])[1].order == 1
    assert signature_triple([], []) == (0, 0, 0)


def dense_signature_triple(M) -> tuple[int, int, int]:
    """Reference signature: dense symmetric elimination over the rationals
    in index order, with diagonal pivots and, when every active diagonal
    vanishes, hyperbolic 2x2 blocks (one eigenvalue of either sign)."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    active = list(range(n))
    neg = zero = pos = 0
    while active:
        piv = next((i for i in active if A[i][i] != 0), None)
        if piv is not None:
            a = A[piv][piv]
            if a > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            for r in active:
                c = A[r][piv] / a
                if c:
                    for s in active:
                        A[r][s] -= c * A[piv][s]
            continue
        pair = next(((i, j) for i in active for j in active if j > i and A[i][j]), None)
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        pos += 1
        neg += 1
        b = A[i][j]
        active.remove(i)
        active.remove(j)
        for r in active:
            ci, cj = A[r][i], A[r][j]
            if ci or cj:
                for s in active:
                    A[r][s] -= (ci * A[j][s] + cj * A[i][s]) / b
    return neg, zero, pos


def random_forest(rng, n):
    """Unit-edge forest form on n vertices; about one leaf in three has
    weight 0, which forces the hyperbolic step."""
    Q = [[0] * n for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.9:
            j = rng.randrange(i)
            Q[i][j] = Q[j][i] = 1
    for i in range(n):
        leaf = sum(1 for x in Q[i] if x) <= 1
        zero = rng.random() < (0.35 if leaf else 0.1)
        Q[i][i] = 0 if zero else rng.choice([-5, -3, -2, -2, -2, -1, 1, 2])
    return Q


def test_signature_matches_eigen_count_small_random():
    rng = random.Random(13)
    for _ in range(100):
        M = random_forest(rng, rng.randint(1, 40))
        assert inertia(M) == dense_signature_triple(M)


def test_signature_of_large_plumbings():
    assert signature_triple(*sparse(chain_matrix([-2] * 300))) == (300, 0, 0)
    lens = LensSum([(301, 300)])
    assert plumbing_tree(lens) == chain_tree([-2] * 300)
    G = replace(first_homology(lens)[1], lift=plumbing_tree(lens).lift)
    assert G.factors == (301,)
    assert all(c == 0 for col in G.project_columns(chain_matrix([-2] * 300)) for c in col)
    # e = 0; the normalised fibres give legs of 150, 150, 1 and 1 vertices
    star = SeifertManifold(True, 0, 0, [(151, 1), (151, 1), (151, -1), (151, -1)])
    assert euler_invariant(star) == 0
    tree = plumbing_tree(star)
    assert tree.size > 300
    assert tree.definiteness == ("negative_semidefinite", 1)
    assert tree.inertia == (tree.size - 1, 1, 0)
    assert first_homology(star)[0] == 1


def dense(tree: PlumbingTree) -> list[list[int]]:
    """The dense n x n form of a plumbing: the oracle the sparse tree is
    checked against."""
    Q = [[0] * tree.size for _ in tree.weights]
    for i, w in enumerate(tree.weights):
        Q[i][i] = w
    for i, j in tree.edges:
        Q[i][j] = Q[j][i] = 1
    return Q


def chain_tree(weights) -> PlumbingTree:
    return PlumbingTree(tuple(weights), tuple((i, i + 1) for i in range(len(weights) - 1)))


fibre = st.tuples(st.integers(2, 7), st.integers(1, 6)).filter(
    lambda f: f[1] < f[0] and math.gcd(*f) == 1
)


@st.composite
def forests(draw):
    """PlumbingTree of a unit-edge forest.  Either a random one, with zero
    weights, isolated vertices and several components, or the plumbing of
    an e = 0 star (complementary fibre pairs over S^2), whose form is
    semi-definite of corank one."""
    if draw(st.booleans()):
        fibres = draw(st.lists(fibre, min_size=1, max_size=3))
        return plumbing_tree(SeifertManifold(True, 0, 0, [*fibres, *((a, -b) for a, b in fibres)]))
    n = draw(st.integers(0, 24))
    diag = draw(st.lists(st.sampled_from([-5, -3, -2, -2, -1, 0, 0, 1, 2]), min_size=n, max_size=n))
    edges = []
    for i in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1)))  # None starts a component
        if parent is not None:
            edges.append((parent, i))
    return PlumbingTree(tuple(diag), tuple(edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=forests())
def test_forest_elimination_matches_dense_oracles(tree):
    """Inertia against dense elimination, and the Wu sets against dense
    GF(2) solving."""
    Q = dense(tree)
    assert tree.inertia == dense_signature_triple(Q)
    assert wu_sets(tree) == mod2_solution_set(Q, tree.weights)


def assert_lift(tree: PlumbingTree, G: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """G, given ``tree.lift``, against the dense form Q of the tree: every
    column of Q projects to 0, the vertex classes generate G, and G has
    the invariant factors of the dense Smith form and |det Q| as its
    order.  So the lift carries coker Q onto G.  Returns G with the lift."""
    Q = dense(tree)
    G = replace(G, lift=tree.lift)
    assert all(c == 0 for col in G.project_columns(Q) for c in col)
    vertices = G.project_columns(identity_matrix(tree.size))
    assert subgroup_from_generators(G, vertices).order == G.order
    assert G.factors == cokernel(Q)[1].factors
    assert G.order == abs(determinant(Q))
    return G


def searched(m, side: str) -> tuple[PlumbingTree, FiniteAbelianGroup]:
    """The tree of ``side`` and the group a report's search on it projects
    onto (``ManifoldContext.coker``)."""
    ctx = ManifoldContext(m)
    return ctx.tree(side), ctx.coker


def random_searched_space(rng) -> tuple[LensSum | SeifertManifold, tuple[str, ...]]:
    """A lens sum of one to four summands with p <= 13 (both sides), a
    star over S^2 or a torus with zero to five fibres a <= 7, |b| <= 2a,
    in any normalisation (the definite side, e != 0), or a space over
    N(1) to N(3) with one to four such fibres (both sides)."""
    def fibres(least, most):
        return [
            (a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1]))
            for a in (rng.randint(2, 7) for _ in range(rng.randint(least, most)))
        ]

    kind = rng.randrange(3)
    if kind == 0:
        sums = []
        for p in (rng.randint(2, 13) for _ in range(rng.randint(1, 4))):
            sums.append((p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])))
        return LensSum(sums), ("+", "-")
    if kind == 1:
        m = SeifertManifold(True, rng.randint(0, 1), rng.randint(-4, 4), fibres(0, 5))
        e = euler_invariant(m)
        return m, () if e == 0 else ("+" if e > 0 else "-",)
    return SeifertManifold(False, rng.randint(1, 3), rng.randint(-4, 4), fibres(1, 4)), ("+", "-")


def test_tree_cokernel_matches_dense_smith_form():
    """On random lens sums, stars and non-orientable forests (n <= 14),
    each searched tree's lift carries coker Q onto the group its report
    searches in (``assert_lift``), and every set of columns spans a
    subgroup of the same order there and in the dense Smith form's
    group.  Both sides of one report search one group, each side's tree
    with its own lift, also where the two trees are equal twins."""
    rng = random.Random(16)
    kinds: Counter = Counter()
    checked = twins = 0
    while sum(kinds.values()) < 3000:
        m, sides = random_searched_space(rng)
        ctx = ManifoldContext(m)
        for side in sides:
            tree, G = ctx.tree(side), ctx.coker
            if tree.size > 14:
                continue
            G = assert_lift(tree, G)
            kinds[type(m).__name__, getattr(m, "base_orientable", None), side] += 1
            twins += side == "-" and tree == ctx._trees.get("+")
            _, full = cokernel(dense(tree))
            for _ in range(2):
                width = rng.randint(1, 3)
                A = [[rng.randint(-2, 2) for _ in range(width)] for _ in tree.weights]
                orders = [subgroup_from_generators(H, H.project_columns(A)).order for H in (G, full)]
                assert orders[0] == orders[1]
                checked += 1
    assert len(kinds) == 6 and min(kinds.values()) >= 200, kinds
    assert checked >= 6000 and twins >= 50


def rational_solve(M, rhs) -> list[list[Fraction]]:
    """The x with M x = b for each b of ``rhs``, M square and invertible, by
    Gauss-Jordan elimination over the rationals."""
    n = len(M)
    A = [[*map(Fraction, row), *(Fraction(b[i]) for b in rhs)] for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    return [[row[n + k] for row in A] for k in range(len(rhs))]


def dense_odd_linking_factor(tree: PlumbingTree) -> int | None:
    """``obstructions.odd_linking_factor`` read off the dense form: lambda
    is x^t Q^-1 y in fractions, and coker Q's Smith generators are the
    columns of U^-1 for U Q V = D.  A generator f of order d = 2^k m, m
    odd, gives 2^(k-1) lambda(m f, m f) = m d lambda(f, f) / 2; for the
    least 2-part 2^k where that is not an integer, the least factor of
    that 2-part is named."""
    Q = dense(tree)
    U, D, _ = smith_normal_form(Q)
    factors = [D[i][i] for i in range(len(Q)) if D[i][i] >= 2]
    even = [(i, D[i][i]) for i in range(len(Q)) if D[i][i] % 2 == 0]
    units = identity_matrix(len(Q))
    gens = rational_solve(U, [units[i] for i, _ in even])
    odd = []
    for (_, d), f, x in zip(even, gens, rational_solve(Q, gens)):
        t = d * sum(a * b for a, b in zip(f, x))
        assert t.denominator == 1
        if t.numerator % 2:
            odd.append(d & -d)
    return next((d for d in factors if odd and d & -d == min(odd)), None)


def random_definite_tree(rng) -> PlumbingTree:
    """Disjoint chains, or a star with one hub and three to six legs, each
    a new leg or a copy of an earlier one (copies make the linking form
    even often), now and then beside a chain, with weights <= -1."""
    weights, edges = [], []

    def leg(start, ws):
        prev = start
        for w in ws:
            weights.append(w)
            if prev >= 0:
                edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1

    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 4)):
            leg(-1, [rng.choice([-6, -5, -4, -3, -2, -2, -1]) for _ in range(rng.randint(1, 4))])
    else:
        weights.append(rng.randint(-8, -1))
        shapes: list = []
        for _ in range(rng.randint(3, 6)):
            if not shapes or rng.random() < 0.5:
                shapes.append([rng.randint(-4, -2) for _ in range(rng.randint(1, 2))])
            leg(0, rng.choice(shapes))
        if rng.random() < 0.2:
            leg(-1, [rng.choice([-4, -3, -2]) for _ in range(rng.randint(1, 2))])
    return PlumbingTree(tuple(weights), tuple(edges))


def random_linking_space(rng) -> LensSum | SeifertManifold:
    """A lens sum of one to four summands with p <= 12, or a space over S^2
    or a torus with zero to six fibres a <= 6, |b| <= 2a, in any
    normalisation, each summand or fibre new or a copy of an earlier one
    (copies make the linking form even often)."""
    pool: list = []
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 4)):
            if not pool or rng.random() < 0.6:
                p = rng.randint(2, 12)
                pool.append((p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])))
            pool.append(rng.choice(pool))
        return LensSum(pool[: len(pool) // 2 + 1])
    fibres: list = []
    for _ in range(rng.randint(0, 6)):
        if not pool or rng.random() < 0.5:
            a = rng.randint(2, 6)
            pool.append((a, rng.choice([b for b in range(-2 * a, 2 * a) if math.gcd(a, b) == 1])))
        fibres.append(rng.choice(pool))
    return SeifertManifold(True, rng.randint(0, 1), rng.randint(-3, 3), fibres)


def test_odd_linking_factor_matches_dense_oracle():
    """On 300 random lens sums and orientable-base spaces with e != 0 and
    even |H_1|, read as their definite plumbings have n <= 14 vertices,
    the linking-form test on the chain-end presentation of H_1 names the
    factor the dense oracle names on each definite plumbing, or none where
    the oracle finds the 2-primary linking form even; and so does the
    test on the mirror's presentation.  A lens sum is definite on both
    sides; a Seifert space on the side of e's sign.  Chains are always odd
    there, as some chain has an even determinant."""
    rng = random.Random(19)
    kinds = Counter()
    while sum(kinds.values()) < 300:
        m = random_linking_space(rng)
        lens = isinstance(m, LensSum)
        if not lens and euler_invariant(m) == 0:
            continue
        sides = ("+", "-") if lens else ("+" if euler_invariant(m) > 0 else "-",)
        trees = [plumbing_tree(m, side) for side in sides]
        torsion = first_homology(m)[1]
        if max(t.size for t in trees) > 14 or torsion.order % 2:
            continue
        d = odd_linking_factor(torsion, linking_form(torsion, *chain_ends(m)))
        mirrored = first_homology(mirror(m))[1]
        assert d == odd_linking_factor(mirrored, linking_form(mirrored, *chain_ends(mirror(m))))
        assert all(d == dense_odd_linking_factor(tree) for tree in trees), m.describe()
        kinds["chains" if lens or not m.invariants else "star", "even" if d is None else "odd"] += 1
    assert kinds[("chains", "even")] == 0
    assert min(kinds[k] for k in (("chains", "odd"), ("star", "even"), ("star", "odd"))) >= 40


def test_cokernel_takes_relations_as_columns():
    """One generator per row and one relation per column, in any shape."""
    free, G = cokernel([[2, 0, 4]])
    assert (G.factors, free) == ((2,), 0)
    free, G = cokernel([[2], [0]])
    assert (G.factors, free) == ((2,), 1)
    free, G = cokernel([[], []])
    assert (G.factors, free) == ((), 2)
    assert cokernel([])[1].order == 1


def test_elimination_needs_a_forest():
    """A cycle leaves no leaf to strip and is refused, by the inertia and
    by the Wu sets alike, while a chain of 100,000 vertices still
    eliminates, and its lift names each vertex's class in H_1 = Z/100001:
    the columns of Q at the chain's two ends and at a middle vertex
    project to 0, and the end vertices generate."""
    with pytest.raises(ValueError, match="needs a forest"):
        signature_triple([-2, -2, -2], [[1, 2], [0, 2], [0, 1]])
    with pytest.raises(ValueError, match="needs a forest"):
        wu_sets(PlumbingTree((-2, -2, -2), ((0, 1), (1, 2), (0, 2))))
    n, lens = 100000, LensSum([(100001, 100000)])
    tree = plumbing_tree(lens)
    assert tree == chain_tree([-2] * n)
    assert tree.inertia == (n, 0, 0)
    G = replace(first_homology(lens)[1], lift=tree.lift)
    assert G.factors == (100001,)
    cols = (0, n // 2, n - 1)
    Q = [[-2 * (i == c) + (abs(i - c) == 1) for c in cols] for i in range(n)]
    assert G.project_columns(Q) == [(0,)] * 3
    ends = [[int(i == c) for c in (0, n - 1)] for i in range(n)]
    assert all(math.gcd(x, 100001) == 1 for (x,) in G.project_columns(ends))


def regenerate(rng, rows):
    """Another generating set of the lattice the rows span: the rows under
    random unimodular row operations, plus integer combinations of them,
    shuffled."""
    rows = [list(r) for r in rows]
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            k = rng.randint(-2, 2)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    out = list(rows)
    for _ in range(rng.randint(0, 2)):
        ks = [rng.randint(-2, 2) for _ in rows]
        out.append([sum(k * r[c] for k, r in zip(ks, rows)) for c in range(len(rows[0]))])
    rng.shuffle(out)
    return out


def test_hermite_basis_canonical():
    """Every generating set of one lattice gives the same basis, in the
    canonical shape: positive pivots in increasing columns, each entry
    above a pivot reduced into [0, pivot)."""
    b1 = hermite_row_basis([(2, 0), (0, 2), (1, 1)], 2)
    b2 = hermite_row_basis([(1, 1), (2, 0)], 2)
    assert b1 == b2 == ((1, 1), (0, 2))
    rows = [(-1, -1, 0), (0, -1, -1), (-1, 1, 0)]
    assert hermite_row_basis(rows, 3) == hermite_row_basis(rows[::-1], 3)
    rng = random.Random(31)
    for _ in range(600):
        m = rng.choice([3, 4])
        rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, m + 1))]
        basis = hermite_row_basis(rows, m)
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(basis, pivots)):
            assert row[p] > 0
            assert all(0 <= basis[k][p] < row[p] for k in range(i))
        for _ in range(3):
            assert hermite_row_basis(regenerate(rng, rows), m) == basis
