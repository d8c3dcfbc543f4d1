"""Embedding obstructions from definite intersection forms.

An embedded rational-homology splitting of the 4-sphere forces, for the
standard negative definite form Q of the manifold, a pair of integer
factorisations A_i A_i^t = -Q whose column subgroups H_i = im A_i / im Q
split the cokernel as H_1 + H_2 with H_1 isomorphic to H_2; over a
non-orientable base the conclusion weakens to coker Q isomorphic to
H_i + H_i with |H_1 meet H_2| <= 2.  When e = 0 the semi-definite form
must factor through one fewer column.  For Z/2-homology spheres, a
correction-term argument filters the usable factorisations: every class
of im A / im Q must be hit by A x with x in {-1, +1}^n.

Each check takes the ``PlumbingTree`` of the form, and the double-subset
checks also coker Q on the generators ``PlumbingTree.lift`` names.  Each
check filters and pairs the factorisations as the search finds them,
and stops at its first witness, which a pass cites.  Every verdict of
"obstructed" is backed by the invariant factors of coker Q, by its
linking form or by a provably completed search.  Each search ends in
``_ended``, the one home of that rule: budget exhaustion downgrades to
"inconclusive" instead, whose note gives the nodes the search used and
the subsets it found.  Where the theorem's rows pass, the witness is
built, not searched for (``built_pass``).

No output is made here: a result names no row, as ``full_report`` keys
it by the row that ran it, and ``cli`` alone lays it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import add, mod

from .intlinalg import (
    FiniteAbelianGroup,
    Subgroup,
    direct_sum_test,
    doubled_factors,
    subgroup_from_generators,
)
from .lattice import LatticeSubset, SubsetSearchResult, enumerate_subsets
from .manifolds import euler_times, lens_class
from .plumbing import PlumbingTree, chain_layout, layout_size


@dataclass
class ObstructionResult:
    """Outcome of one check: pass / obstructed / inconclusive plus the
    data that certifies it.  The report keys it by the row that ran it."""

    verdict: str
    certificates: list = field(default_factory=list)
    notes: str = ""

    @property
    def obstructed(self) -> bool:
        return self.verdict == "obstructed"


def subset_column_subgroup(G: FiniteAbelianGroup, subset: LatticeSubset) -> Subgroup:
    """H = im A / im Q inside coker Q, generated by the columns of A."""
    return subgroup_from_generators(G, G.project_columns(subset.rows))


def char_vector_criterion(G: FiniteAbelianGroup, columns) -> bool:
    """Correction-term filter for Z/2-homology spheres.

    G is coker Q and ``columns`` are the classes g_1, ..., g_n in G of the
    columns of a factorisation A A^t = -Q (``G.project_columns``), which
    span H = im A / im Q.  True iff every coset of im Q inside im A is
    A x for some x with all coordinates +-1.  Such x are exactly the
    characteristic vectors of the ambient diagonal lattice, so the
    reachable cosets are the signed sums of the g_i, which all lie in H;
    the test is whether there are |H| of them.  A signed sum is s_0 - 2 s
    with s_0 the sum of all g_i and s a subset sum, and 2 is invertible in
    a group of odd order, so there are as many signed sums as subset sums.

    |H| is read off |G|, with no basis of H: Q is definite, so A is square
    and nonsingular and |det A|^2 = |det Q| = |G|, and as im Q lies in
    im A, |H| = [im A : im Q] = |det A| = sqrt |G|.  The subset sums R are
    collected column by column, each g adding R + g to R, until R is all
    of H.  A column at most doubles R, so once |R| 2^k < |H| with k
    columns left, the test has failed.
    """
    if G.order % 2 == 0:
        raise ValueError("criterion needs an odd-order cokernel")
    order = math.isqrt(G.order)
    factors = G.factors
    reachable = {(0,) * len(factors)}
    left = len(columns)
    for g in columns:
        if len(reachable) == order or len(reachable) << left < order:
            break
        reachable |= {tuple(map(mod, map(add, r, g), factors)) for r in reachable}
        left -= 1
    return len(reachable) == order


def _require(tree: PlumbingTree, definiteness: tuple[str, int], check: str) -> None:
    """Raise ValueError unless the tree's form has this definiteness."""
    if tree.definiteness != definiteness:
        kind, corank = definiteness
        raise ValueError(f"{check} needs a {kind.replace('_', ' ')} form of corank {corank}")


def pairs_up(factors) -> bool:
    """Do the invariant factors come in equal pairs, d1 = d2, d3 = d4, ...,
    as those of a group H + H do?  The trivial group's () does."""
    return doubled_factors(factors[1::2]) == tuple(factors)


# each check's note after a non-square |coker Q| and after unpaired factors
_UNDOUBLED = {
    "double_subset": (", so no factorisation exists", "no splitting pair exists"),
    "nonorientable_double_subset": ("", "no subset qualifies"),
}


def undoubled(name: str, G: FiniteAbelianGroup) -> ObstructionResult | None:
    """The refutation of check ``name`` where G, its coker Q, is not H + H
    by a non-square order or invariant factors that do not pair up; None
    where G may be H + H.  Both checks need G = H + H: a splitting pair
    G = H1 + H2 with H1 isomorphic to H2 makes G isomorphic to H1 + H1, and
    the non-orientable pair asks for it outright.  It reads only G's
    factors, so a report can pass any group isomorphic to coker Q, and
    no plumbing need exist."""
    square, unpaired = _UNDOUBLED[name]
    if math.isqrt(G.order) ** 2 != G.order:
        notes = f"|coker Q| = {G.order} is not a perfect square{square}"
    elif not pairs_up(G.factors):
        group = " + ".join(f"Z/{d}" for d in G.factors)
        notes = f"coker Q = {group} is not of the form H + H, so {unpaired}"
    else:
        return None
    return ObstructionResult("obstructed", notes=notes)


@dataclass(frozen=True)
class LinkingForm:
    """The linking form lambda(x, y) = x^t Q^-1 y mod 1 of a group G =
    coker Q, on a basis x_i of G as a direct sum of the cyclic groups
    Z/d_i, d_i = ``orders[i]``: lambda(x_i, x_j) = ``gram[i][j]`` / N mod 1,
    N = ``denominator``, the least common multiple of the d_i."""

    orders: tuple[int, ...]
    gram: tuple[tuple[int, ...], ...]
    denominator: int


def linking_form(G: FiniteAbelianGroup, hub: int | None, ends) -> LinkingForm:
    """The linking form of G, H_1 (``first_homology``) of a lens sum or of
    an orientable-base space with e != 0, read on the chain ends (q_k, a_k)
    of its '+' plumbing (``chain_ends``) with no plumbing built.

    With no hub G is the sum of the Z/a_k on the chain ends g_k, and
    lambda is diagonal there: lambda(g_k, g_k) = -q_k^-1 / a_k, a sum of
    lens-space forms.  With a hub of weight w and
    e = -w - sum of q_k / a_k, lambda is in closed form on the g_k:

        lambda(g_k, g_l) = -1 / (e a_k a_l) - [k = l] q_k^-1 / a_k,

    q_k^-1 taken mod a_k.  The basis is then G's Smith generators
    f = sum c_k g_k (``FiniteAbelianGroup.generators``), and lambda(f, f')
    is -(sum of c_k / a_k)(sum of c'_k / a_k) / e - sum of
    c_k c'_k q_k^-1 / a_k."""
    if G.order == 1:
        return LinkingForm((), (), 1)
    if hub is None:
        # a lone vertex (1, -r) of a space with no fibres has a = -r
        basis = [(abs(a), q, a) for q, a in ends if abs(a) > 1]
        N = math.lcm(*(d for d, _, _ in basis))
        diagonal = [-(N // a) * pow(q, -1, d) % N for d, q, a in basis]
        gram = tuple(
            tuple(x if i == j else 0 for j in range(len(basis))) for i, x in enumerate(diagonal)
        )
        return LinkingForm(tuple(d for d, _, _ in basis), gram, N)
    E, P = euler_times(hub, ends)  # lambda over the integer denominator P E
    inverses = [pow(q, -1, a) for q, a in ends]
    N = G.factors[-1]
    gens = G.generators
    at_hub = [sum(c * (P // a) for c, (_, a) in zip(f, ends)) for f in gens]  # P sum c_k / a_k
    gram = []
    for f, h in zip(gens, at_hub):
        row = []
        for f2, h2 in zip(gens, at_hub):
            own = sum(c * c2 * b * (P // a) for c, c2, b, (_, a) in zip(f, f2, inverses, ends))
            x, rest = divmod(-N * (h * h2 + own * E), P * E)
            assert rest == 0, "N f is not zero in G"
            row.append(x % N)
        gram.append(tuple(row))
    return LinkingForm(G.factors, tuple(gram), N)


def odd_linking_factor(G: FiniteAbelianGroup, form: LinkingForm) -> int | None:
    """None where the 2-primary part of the linking form of G is even;
    else, for the least k with 2^(k-1) lambda(x, x) != 0 for some x of
    order 2^k, the least invariant factor of G of 2-part 2^k.  ``form`` is
    lambda on a cyclic basis of G (``linking_form``).

    2^(k-1) lambda(x, x) is the residual form b_k(x, x) of
    ``nonhyperbolic_part`` at l = 2, read on its diagonal: it vanishes on
    G[2^(k-1)] + 2 G[2^(k+1)], and x -> b_k(x, x) is additive, as
    2 b_k(x, y) = 0, so it vanishes iff it does on the basis e = m x of
    V_k, x of order d = 2^k m, where it is m t / 2 with the integer
    t = d lambda(x, x).  So the part is even iff t is even for every
    basis element of even order (Kawauchi-Kojima, *Algebraic
    classification of linking pairings on 3-manifolds*, Math. Ann. 253,
    1980; ``double_subset_obstruction`` shows a split needs it).  Which k
    fail depends on no basis, and reversing orientation negates lambda,
    so neither the factor named nor the side read matters.  On a lens
    sum's chain ends t = -q^-1, so k fails where some p has 2-part 2^k."""
    N = form.denominator
    odd = []
    for i, d in enumerate(form.orders):
        if d % 2 == 0:
            t, rest = divmod(d * form.gram[i][i], N)
            assert rest == 0, "d x is not zero in G"
            if t % 2:
                odd.append(d)
    if not odd:
        return None
    two = min(p & -p for p in odd)  # the least 2-part
    return next(d for d in G.factors if d & -d == two)


# odd divisors tried when a linking form is split prime by prime; a cofactor
# with no prime factor below this and of at least its square is not tested
TRIAL_DIVISORS = 1 << 16


def _odd_primes(n: int) -> list[int]:
    """The odd primes of n found by trial division up to TRIAL_DIVISORS,
    with the cofactor left over if it is then known to be prime."""
    n //= n & -n
    primes, d = [], 3
    while d * d <= n and d < TRIAL_DIVISORS:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1 and d * d > n:
        primes.append(n)
    return primes


def _det_mod(rows: list[list[int]], l: int) -> int:
    """The determinant mod the prime l of the square matrix ``rows`` of
    residues mod l, by elimination over F_l in place.  A column with no
    pivot makes it 0, and x^(l - 2) is the inverse of x != 0 and 0 for
    x = 0."""
    det = 1
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), c)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        det = det * (pivot[c] if p == c else -pivot[c]) % l
        inverse = pow(pivot[c], l - 2, l)
        for row in rows[c + 1 :]:
            if row[c]:
                f = row[c] * inverse % l
                row[c:] = [(x - f * y) % l for x, y in zip(row[c:], pivot[c:])]
    return det


def nonhyperbolic_part(form: LinkingForm) -> tuple[int, int] | None:
    """None where lambda is hyperbolic at every odd prime tested; else
    (l^k, n) for the homogeneous piece (Z/l^k)^n of the least odd prime l,
    and the least k there, that is not.

    The l-primary part of lambda, l an odd prime, is an orthogonal sum of
    homogeneous pieces (Z/l^k)^(n_k), and a piece is hyperbolic iff n_k
    is even and (-1)^(n_k / 2) times its discriminant is a square mod l,
    the discriminant of n_k / 2 hyperbolic planes (Wall, *Quadratic forms
    on finite groups, and related topics*, Topology 2, 1963;
    Kawauchi-Kojima, Math. Ann. 253, 1980).  Both invariants are read
    with no splitting, off the residual form b_k(x, y) = l^(k-1)
    lambda(x, y) in (1/l)Z/Z = F_l.  It is well defined on V_k = G[l^k] /
    (G[l^(k-1)] + l G[l^(k+1)]), as l^(k-1) lambda(x, y) = lambda(x,
    l^(k-1) y) = 0 for y in G[l^(k-1)] and l^(k-1) lambda(x, l z) =
    lambda(l^k x, z) = 0 for x in G[l^k]; and on V_k it is the piece of
    level k reduced mod l, so it is nondegenerate, of rank n_k and of
    that discriminant.  The l-parts e_i = (d_i / l^k) x_i of the basis
    elements whose order d_i has l-part l^k are a basis of V_k: those of
    lower level lie in G[l^(k-1)], and l^(j-k) e_i of a higher level j
    lies in l G[l^(k+1)].  So n_k counts them, and the discriminant is
    det(l^k lambda(e_i, e_j)) mod l.  Negating lambda keeps a piece
    hyperbolic, so neither the side read nor the basis matters.  Primes
    are found by trial division (``TRIAL_DIVISORS``); those of an
    untested cofactor refute nothing."""
    N = form.denominator
    for l in _odd_primes(N):
        levels: dict[int, list[tuple[int, int]]] = {}
        for i, d in enumerate(form.orders):
            k, m = 0, d
            while m % l == 0:
                k, m = k + 1, m // l
            if k:
                levels.setdefault(k, []).append((i, m))
        for k in sorted(levels):
            part, scale = levels[k], N // l**k
            rows = []
            for i, m in part:
                row = [m * m2 * form.gram[i][j] for j, m2 in part]
                assert not any(x % scale for x in row), "l^k e is not zero in G"
                rows.append([x // scale % l for x in row])
            n, det = len(part), _det_mod(rows, l)
            assert det, "the residual form is degenerate"
            if n % 2 or pow((-1) ** (n // 2) * det, (l - 1) // 2, l) != 1:
                return l**k, n
    return None


def blown_up_chain(c) -> list[dict[int, int]]:
    """Sparse rows r_v, coordinate -> entry, with r_u . r_v = -Q(u, v) for
    the chain whose -Q has diagonal ``c``, through len(c) - 1 coordinates,
    when the chain blows down to the 0-framed unknot (0).  Blowing down a
    vertex of -Q weight 1 joins its neighbours and lowers their weights by
    one; undoing it adds a coordinate, 1 on the vertex and -1 on each
    neighbour (Lisca, *Lens spaces, rational balls and the ribbon
    conjecture*, Geom. Topol. 11, 2007).  The form (0) has the empty row.
    The blow-downs run in a loop, and the last one taken is undone first,
    on coordinate 0, so a chain of any length takes no recursion.  A chain
    that does not blow down to (0) raises ValueError."""
    n = len(c)
    weight = list(c)
    left, right = list(range(-1, n - 1)), list(range(1, n + 1))  # -1 and n: no neighbour
    ones = [v for v in range(n) if weight[v] == 1]
    gone = [False] * n
    steps = []
    for _ in range(n - 1):
        # a vertex is queued once, at weight 1; one whose weight fell since
        # never blows down, and its last neighbour's blow-down leaves it < 0
        v = ones.pop() if ones else -1
        if v < 0 or weight[v] != 1:
            raise ValueError("the chain does not blow down to (0)")
        gone[v] = True
        u, w = left[v], right[v]
        if u >= 0:
            right[u] = w
        if w < n:
            left[w] = u
        near = [x for x in (u, w) if 0 <= x < n]
        for x in near:
            weight[x] -= 1
            if weight[x] == 1:
                ones.append(x)
        steps.append((v, near))
    if n == 0 or weight[gone.index(False)] != 0:
        raise ValueError("the chain does not blow down to (0)")
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for coordinate, (v, near) in enumerate(reversed(steps)):
        rows[v][coordinate] = 1
        for x in near:
            rows[x][coordinate] = -1
    return rows


def _chain_value(seq) -> tuple[int, int]:
    """(p, q) with p/q = [c_1, ..., c_s], the expansion of ``seq``."""
    p, q = 1, 0
    for c in reversed(seq):
        p, q = c * p - q, p
    return p, q


def blown_up_pairs(layout, hub: bool = False) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Dense rows of A and A', row i on vertex i of ``layout``
    (``plumbing.chain_layout``), with A A^t = A' A'^t = -Q for a chain
    forest, a lens sum's or the legs over a non-orientable base, whose
    chains pair into mirrors L(p, q), L(p, p - q); ValueError if they do
    not.

    Chains are paired in layout order, each with an unpaired chain of its
    mirror class before it, so a self-mirror class (q^2 = -1 mod p) pairs
    with a second copy of itself.  The expansions p/q = [c_1, ..., c_s]
    and p/(p - q) = [d_1, ..., d_t] are Riemenschneider dual (Math. Ann.
    209, 1974), so the chain [c_s, ..., c_1, 1, d_1, ..., d_t] blows down
    to (0), and ``blown_up_chain`` gives it rows through s + t coordinates
    of the pair's own.  The pair's first chain, in layout order, reads
    p/q; its partner is read forward if it reads p/(p - q), else backward
    (p/q^-1 reverses the expansion).  The centre row is dropped, and the
    two chains meet in no entry of Q, so the rows factor -Q.  A' negates
    the rows of each pair's second chain, which changes no entry of A A^t,
    but for k >= 2 pairs (f_i, s_i) of even a it pairs f_i with
    s_(i+1 mod k) and negates the second chain for i = 0 alone
    (``built_pass`` says why).

    With ``hub``, for the star of an e = 0 space, the layout holds its
    legs read from the hub outward (``chain_layout(ends, hub=True)``),
    behind a hub row 0, and A alone is returned.  A leg cannot be
    reversed, so it pairs with the exact complement p/(p - q), read
    forward.  Each centre vertex meets the two innermost leg vertices as
    the hub does, so the centre rows, on disjoint coordinates, sum to the
    hub row, of norm k for k pairs: the hub's -Q weight, as e = 0 and
    q/a + (a - q)/a = 1.  So A A^t = -Q through n - 1 columns for n
    vertices; A' would meet the hub in +1."""
    weights = [c for seq, _ in layout for c in seq]

    def cls(p, q):  # a leg keeps its value; a chain's reversal reads p/q^-1
        return (p, q) if hub else lens_class(p, q)

    pairs = []  # (p, (first chain, its q), (second chain, its q))
    waiting: dict[tuple, list] = {}
    start = 0
    for seq, _ in layout:
        chain = range(start, start + len(seq))
        start += len(seq)
        p, q = _chain_value(seq)
        if not waiting.get(mirror := cls(p, p - q)):
            waiting.setdefault(cls(p, q), []).append((chain, q))
        else:
            pairs.append((p, waiting[mirror].pop(), (chain, q)))
    if any(waiting.values()):
        raise ValueError("the chains do not pair into mirrors")

    def rows(matches) -> tuple[tuple[int, ...], ...]:
        """The rows of (p, first, second, negated) pairs, each on its own
        coordinates, with the second chain's rows negated where asked."""
        M = [[0] * len(weights) for _ in range(hub + len(weights))]
        offset = 0
        for p, (first, q1), (chain, q), negated in matches:
            second = chain if (q1 + q) % p == 0 else chain[::-1]
            order = [*first[::-1], -1, *second]  # -1 marks the centre
            for v, row in zip(order, blown_up_chain([1 if v < 0 else weights[v] for v in order])):
                if v >= 0 or hub:  # with a hub, the centre's row -1 lands on row 0
                    sign = -1 if negated and v in chain else 1
                    for t, x in row.items():
                        M[v + hub][offset + t] = sign * x
            offset += len(order) - 1
        return tuple(map(tuple, M))

    A = rows([(p, f, s, False) for p, f, s in pairs])
    if hub:
        return (A,)
    matches = [(p, f, s, True) for p, f, s in pairs]
    even = [i for i, (p, _, _) in enumerate(pairs) if p % 2 == 0]
    if len(even) >= 2:
        for i, j, negated in zip(even, even[1:] + even[:1], _cycle_signs(len(even))):
            matches[i] = (pairs[i][0], pairs[i][1], pairs[j][2], negated)
    return A, rows(matches)


def _cycle_signs(k: int) -> list[bool]:
    """Which of the k >= 2 rematched pairs (f_i, s_(i+1)) of A' negate
    their second chain (``built_pass``)."""
    return [i == 0 for i in range(k)]


# past this many rows a certificate row builds no plumbing
PRINTED_ROWS = 1000

# each check's note on a pass, found or built
_PASSED = {
    "double_subset": "cokernel splits as H + H",
    "nonorientable_double_subset": "cokernel is H + H twice over with small intersection",
}


def built_pass(name: str, ends, group: FiniteAbelianGroup | None = None) -> ObstructionResult:
    """The pass of check ``name`` from the chain ends (q, a), built with no
    search and no plumbing read: the rows of ``blown_up_pairs``, laid out
    by ``chain_layout`` as either side's tree is, as the two sides have
    the same chains.  Past PRINTED_ROWS rows (``layout_size``), they are
    summarised, not built.  With no ``group``, the rows A of an e = 0
    star's complementary legs pass semidefinite_subset.

    Else ``group`` is coker Q of a chain forest whose chains pair into
    mirrors, and it cites the pair A, A'.  On each pair's block, H = im A
    / im Q is the graph of an isomorphism phi from the first chain's Z/a
    to the second's, and so is H' on each pair of A'.  So H and H' are
    isomorphic to the sum of the pairs' Z/a_j, each taken once: G's
    factors taken once, of order sqrt |G|, and each doubles to G, the
    sum of the (Z/a_j)^2.  The result cites that type, with no subgroup
    built.  Where A' is A with a pair's second chain negated, H' is the
    graph of -phi there, and H meet H' is {x : 2 phi(x) = 0} on the
    block: 0 for odd a, Z/2 for even a.  So:

    - double_subset, a lens sum whose summands pair into mirrors: H + H'
      = G iff every p is odd, the lens-sum theorem's condition, and H and
      H' are then isomorphic Lagrangians (``double_subset_obstruction``);
    - nonorientable_double_subset, the legs (-b, a) of fibres (a, b) over
      a non-orientable base: ``weak_complementary_matched`` holds iff the
      legs' lens classes pair into mirrors, and with
      ``even_fibre_clause`` |H meet H'| = 2 for any k >= 1 pairs of even
      a.  For k = 1 this is the negated pair.  For k >= 2 the even pairs
      (f_i, s_i) have one p and one class c up to mirror
      (``classify.even_fibre_clause``), and a class's chains all read one
      sequence from the smaller end, so the layout puts them together,
      every f_i of class c and every s_i of its mirror: (f_i, s_(i+1)) is
      again a mirror pair, and every pair is built alike.  On the even
      block H meet H' is the kernel of psi - psi', where psi(f_i) = u s_i
      on A's pairs and psi'(f_i) = +-u s_(i+1) on A''s
      (``blown_up_pairs``), u one unit on the chain ends.  So x is in the
      kernel iff x_(i+1) = +-x_i around the cycle, and as the signs
      multiply to -1, x_0 = -x_0: the kernel is
      {x : 2x = 0} in one Z/a, of order 2.  With no sign negated it would
      be all of Z/a, and with every one negated, for even k too."""
    hub = group is None
    if hub:
        built = "-Q factors through one fewer column, by rows built from the complementary legs"
        halves = []
    else:
        built = f"{_PASSED[name]}, by a pair built from the mirror chains"
        # H, each half of G = H + H: G.factors doubles H's, and |H|^2 = |G|
        H = {"subgroup_factors": list(group.factors[1::2]), "order": math.isqrt(group.order)}
        halves = [(H, H)]
    rows = layout_size(ends, hub)
    if rows > PRINTED_ROWS:
        notes = f"{built}; its {rows} rows, past {PRINTED_ROWS}, are neither built nor printed"
        return ObstructionResult("pass", halves, notes)
    A = tuple(map(LatticeSubset, blown_up_pairs(chain_layout(ends, hub), hub)))
    return ObstructionResult("pass", [A[0] if hub else A, *halves], built)


def _ended(res: SubsetSearchResult, witness: list, passed: str, refuted: str) -> ObstructionResult:
    """The result of the finished search ``res``: the one place where a
    check's search becomes its verdict, and the one home of the rule that
    "obstructed" means a completed search.

    - a ``witness`` found by the search passes, citing it, with the
      note ``passed``;
    - else a search whose budget ran out is "inconclusive", whatever it
      saw, and its note gives the nodes it used and the subsets it found;
    - else the search completed and found no witness: "obstructed", with
      the check's note ``refuted``."""
    if witness:
        return ObstructionResult("pass", witness, passed)
    if not res.complete:
        notes = f"budget exhausted after {res.nodes} nodes; {len(res.subsets)} subset(s) found"
        return ObstructionResult("inconclusive", notes=notes)
    return ObstructionResult("obstructed", notes=refuted)


def double_subset_obstruction(
    tree: PlumbingTree, group: FiniteAbelianGroup, budget: int | None = None
) -> ObstructionResult:
    """Search for two factorisations splitting coker Q as H + H, Q the
    form of ``tree`` and ``group`` its coker Q, presented on the
    generators ``tree.lift`` writes vertices in (``cokernel`` of the dense
    form, on a bare tree).

    The pair must have distinct column subgroups unless the cokernel is
    trivial, in which case a single factorisation suffices.  For odd
    cokernel order, factorisations failing the correction-term filter
    cannot arise from a rational-ball side and are discarded.  The filter
    reads only the subset's column classes and takes |H| from |G| (the
    order argument at ``char_vector_criterion``), so the subgroup H, with
    its Hermite basis, is built only for a kept subset that is to be
    paired.  A group that is not H + H refutes the check with no search
    (``undoubled``).

    Each column subgroup H = im A / im Q is a Lagrangian of the linking
    form lambda(x, y) = x^t Q^-1 y mod 1 on G: for x = A u and y = A v,
    A A^t = -Q gives lambda(x, y) = -u^t v, an integer, and |H|^2 = |G|.
    Two column subgroups whose sum is direct are therefore isomorphic:
    lambda is nondegenerate and vanishes on each, so y -> lambda(., y)
    maps H2 one-to-one into Hom(H1, Q/Z), which is isomorphic to H1 and
    of H2's order (Kawauchi-Kojima, Math. Ann. 253, 1980; Wall, Topology
    2, 1963).  Every usable subgroup is thus kept and joined, whatever
    its type.  A splitting pair also makes lambda hyperbolic: for
    x = a + b with a in H1 and b in H2, lambda(x, x) = 2 lambda(a, b), and
    if 2^k x = 0, then 2^k a = 0 as the sum is direct, so
    2^(k-1) lambda(x, x) = 2^k lambda(a, b) = lambda(2^k a, b) = 0; and at
    an odd prime lambda is hyperbolic on H1 + H2, Hom(H1, Q/Z) = H2.

    On a pass the filter's "removed" count covers only the subsets met
    before the splitting pair.
    """
    _require(tree, ("negative_definite", 0), "double-subset obstruction")
    G = replace(group, lift=tree.lift)
    if (refuted := undoubled("double_subset", G)) is not None:
        return refuted
    filtered = G.order % 2 == 1
    removed = 0
    # (H, subset) in search order, each H new: Q is definite, so A is
    # square and nonsingular, and im Q lies in im A, so H = im A / im Q
    # determines im A.  If im A = im A', then A' = A U with U unimodular,
    # and A U U^t A^t = A A^t gives U U^t = I: U is a signed permutation,
    # so A' is in A's orbit, which the search yields once.
    usable: list = []
    witness: list = []

    def split_found(s: LatticeSubset) -> bool:
        nonlocal removed
        columns = G.project_columns(s.rows)
        if filtered and not char_vector_criterion(G, columns):
            removed += 1
            return False
        if G.order == 1:
            witness.append((s, s))
            return True
        H = subgroup_from_generators(G, columns)
        for H1, A1 in usable:
            if direct_sum_test(G, H1, H)[0]:
                witness.extend([(A1, s), (H1, H)])
                return True
        usable.append((H, s))
        return False

    res = enumerate_subsets(tree, budget, until=split_found)
    note = f"{removed} factorisation(s) removed by the correction-term filter; " if removed else ""
    if G.order == 1:
        return _ended(res, witness, note + "trivial cokernel", note + "no factorisation exists")
    searched = f"complete search: {len(usable)} usable subgroup(s), no splitting pair"
    return _ended(res, witness, note + _PASSED["double_subset"], note + searched)


def semidefinite_obstruction(tree: PlumbingTree, budget: int | None = None) -> ObstructionResult:
    """Rectangular factorisation A A^t = -Q through one fewer column, Q
    the form of ``tree``; the search stops at the first one."""
    _require(tree, ("negative_semidefinite", 1), "semi-definite obstruction")
    res = enumerate_subsets(tree, budget, until=lambda s: True)
    return _ended(res, res.subsets[:1], "", "complete search: no rectangular factorisation")


def nonorientable_obstruction(
    tree: PlumbingTree, group: FiniteAbelianGroup | None, budget: int | None = None
) -> ObstructionResult:
    """Pair of factorisations with coker Q isomorphic to H_i + H_i and
    |H_1 meet H_2| <= 2, Q the form of ``tree`` (the non-orientable base
    form) and ``group`` its coker Q, as in ``double_subset_obstruction``,
    or None when the form is empty and passes vacuously.
    A subset qualifies when its column subgroup H has
    ``doubled_factors(H.factors)`` equal to the factors of coker Q
    (``undoubled`` refutes where none can).  The type is tested here, as
    the pair need not split coker Q, and a Lagrangian need not be a half:
    2G in G = Z/4 + Z/4 is one.  Each new qualifying subset is tested
    against the earlier ones and itself as the search finds it."""
    if tree.size == 0:
        return ObstructionResult("pass", notes="empty form, vacuous")
    _require(tree, ("negative_definite", 0), "non-orientable obstruction")
    G = replace(group, lift=tree.lift)
    if (refuted := undoubled("nonorientable_double_subset", G)) is not None:
        return refuted
    qualifying: list = []
    witness: list = []

    def pair_found(s: LatticeSubset) -> bool:
        H = subset_column_subgroup(G, s)
        if doubled_factors(H.factors) != G.factors:
            return False
        qualifying.append((H, s))
        for H1, A1 in qualifying:
            if direct_sum_test(G, H1, H)[2] <= 2:
                witness.extend([(A1, s), (H1, H)])
                return True
        return False

    res = enumerate_subsets(tree, budget, until=pair_found)
    searched = f"complete search: {len(qualifying)} qualifying subset(s), no pair with intersection"
    return _ended(res, witness, _PASSED["nonorientable_double_subset"], f"{searched} <= 2")
