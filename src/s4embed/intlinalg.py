"""Exact integer linear algebra shared by every obstruction.

Smith and Hermite normal forms, the exact inertia of plumbing forms,
and presentation-based finite abelian group and subgroup arithmetic.
Everything runs on Python's arbitrary-precision integers; group orders
of plumbings outgrow machine words as soon as legs get long, and none
of these questions tolerate rounding.

Subgroup questions are answered, in integers only, from the Hermite
basis of the lift lattice (generators plus relations) in Z^m: the order
of a subgroup is |G| over that lattice's index (Cohen, GTM 138, section
2.4).  One routine, ``_reduce_into``, reduces vectors into an
upper-triangular basis.

Matrices are plain lists of row lists.  All functions are pure, so
concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mod
from typing import Callable


class lazy:
    """A value computed on an instance's first read and stored in its
    ``__dict__``, where later reads find it ahead of this descriptor; as
    with ``functools.cached_property``, the store goes round a frozen
    dataclass's ``__setattr__``.  Unlike that class, this one takes no
    lock: up to Python 3.11 cached_property takes an RLock on every first
    read (3.12 dropped the lock), a cost that each short-lived context,
    tree and subgroup of a report pays.  Two threads that make the first
    read at once both compute the value and one is kept, which is
    harmless for the pure values stored here."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.fn(instance)
        return value


# ---------------------------------------------------------------------------
# matrix helpers


def identity_matrix(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalise M over the integers.

    Returns (U, D, V) with U*M*V == D, U and V unimodular, and D diagonal
    with d1 | d2 | ... | dk and every di >= 0.  This is the textbook
    pivot loop (Cohen, GTM 138, section 2.4), run once per diagonal
    position t on the block D[t:, t:]:

    1. a least nonzero |entry| of the block is the pivot, swapped to
       (t, t), which keeps coefficient growth tame at the matrix sizes
       plumbing graphs produce;
    2. one division step reduces the rest of column t and row t modulo
       the pivot;
    3. if they are not yet clear, the loop picks a pivot again;
    4. if they are, and a pivot other than +-1 fails to divide an entry
       of the rest of the block, that entry's row is added to row t and
       the loop picks a pivot again;
    5. otherwise it moves on to t + 1.

    The loop ends: a round that does not move on leaves a nonzero
    remainder smaller than the pivot in row or column t, at once or
    after the row is added, so the least |entry| of the block falls.

    D is unique; U and V are one choice among many, and a group reads
    them only through what depends on no basis: the subgroups that U's
    torsion rows project onto, and the factor that
    ``obstructions.odd_linking_factor`` names from the generators in V.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [list(r) for r in M]
    U = identity_matrix(rows)
    V = identity_matrix(cols)
    t = 0
    while t < min(rows, cols):
        best = 0
        for i in range(t, rows):
            Di = D[i]
            for j in range(t, cols):
                v = Di[j]
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for r in D + V:
                r[t], r[pj] = r[pj], r[t]
        Dt, Ut, p = D[t], U[t], D[t][t]
        # rows below t are zero before column t, and rows above it are
        # zero from column t on
        for i in range(t + 1, rows):
            Di, Ui = D[i], U[i]
            if Di[t]:
                q = Di[t] // p
                for j in range(t, cols):
                    Di[j] -= q * Dt[j]
                for j in range(rows):
                    Ui[j] -= q * Ut[j]
        for j in range(t + 1, cols):
            if Dt[j]:
                q = Dt[j] // p
                for r in D[t:]:
                    r[j] -= q * r[t]
                for r in V:
                    r[j] -= q * r[t]
        if any(Dt[t + 1 :]) or any(r[t] for r in D[t + 1 :]):
            continue
        # a pivot other than +-1 must divide the rest of the block
        for i in range(t + 1, rows if best > 1 else t + 1):
            Di, Ui = D[i], U[i]
            if math.gcd(p, *Di[t + 1 :]) < best:
                for j in range(t + 1, cols):
                    Dt[j] += Di[j]
                for j in range(rows):
                    Ut[j] += Ui[j]
                break
        else:
            t += 1

    for i in range(min(rows, cols)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


# ---------------------------------------------------------------------------
# Hermite basis of a row lattice


def _reduce_into(basis, rows) -> None:
    """Reduce integer rows into an upper-triangular basis, in place.

    ``basis[i]`` is None or the basis row whose pivot, its first nonzero
    entry and a positive one, sits in column i.  Each row is reduced
    column by column: an empty column takes the row (made positive) as
    its pivot row, and a pivot absorbs the row's entry by one extended gcd
    when it does not divide it.  Every step is unimodular, so the basis
    spans the lattice of its old rows and the new ones.
    """
    for v in rows:
        for i in range(len(basis)):
            a = v[i]
            if not a:
                continue
            b = basis[i]
            if b is None:
                basis[i] = list(v) if a > 0 else [-x for x in v]
                break
            q, rest = divmod(a, b[i])
            if rest:
                x, y, g = xgcd(b[i], a)
                cb, cv = b[i] // g, a // g
                basis[i] = [x * s + y * t for s, t in zip(b, v)]
                v = [cb * t - cv * s for s, t in zip(b, v)]
            else:
                v = [t - q * s for s, t in zip(b, v)]


def hermite_row_basis(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical echelon basis of the lattice spanned by integer rows.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), rows are sorted by pivot column.  Two generating sets
    span the same lattice iff they produce identical bases.  The rows are
    reduced into a triangular basis by ``_reduce_into``, and then above
    each pivot in ascending order: reducing by a pivot row changes only
    columns at or after its pivot, so no earlier pivot column is undone.
    """
    slots: list = [None] * width
    for vec in rows:
        if len(vec) != width:
            raise ValueError("row width mismatch")
    _reduce_into(slots, rows)
    basis = [row for row in slots if row is not None]
    pivots = [i for i, row in enumerate(slots) if row is not None]
    for i, p in enumerate(pivots):
        b = basis[i]
        for k in range(i):
            q = basis[k][p] // b[p]
            if q:
                basis[k] = [a - q * c for a, c in zip(basis[k], b)]
    return tuple(tuple(r) for r in basis)


# ---------------------------------------------------------------------------
# leaf stripping of a plumbing forest, and its exact inertia


def strip_forest(neighbours, pivots):
    """Strip a forest leaf by leaf, yielding each elimination step.

    This is the one walk of a plumbing form: ``signature_triple`` reads
    its inertia off it over the integers, and ``spin.wu_sets`` its Wu
    sets over GF(2) (W. Neumann, *A calculus for plumbing applied to the
    topology of complex surface singularities and degenerating complex
    curves*, Trans. AMS 268, 1981).  ``neighbours[i]`` lists vertex i's
    neighbours, and each step takes a vertex v of degree at most one:

    - ``(v, None, None)``: v is isolated;
    - ``(v, u, None)``: v is a leaf with nonzero pivot, stripped into its
      neighbour u;
    - ``(v, u, rest)``: v is a leaf with zero pivot, taken with its
      neighbour u; ``rest`` is the set of u's other neighbours.

    ``pivots[v]`` is read when v is taken, so the caller steers the walk
    by updating u's pivot before it asks for the next step.  Every vertex
    is taken once, in linear time.  A graph with a cycle runs out of
    leaves, and raises ValueError.
    """
    adj: list = [set(row) for row in neighbours]  # None once a vertex is taken
    leaves = [v for v in range(len(adj)) if len(adj[v]) <= 1]

    def detach(v) -> set:
        row = adj[v]
        adj[v] = None
        for r in row:
            adj[r].discard(v)
        return row

    while leaves:
        v = leaves.pop()
        if adj[v] is None:
            continue
        row = detach(v)
        if not row:  # v ends its component
            yield v, None, None
            continue
        (u,) = row
        if pivots[v]:
            yield v, u, None
        else:
            row = detach(u)
            yield v, u, row
        leaves.extend(r for r in row if len(adj[r]) <= 1)
    if adj.count(None) < len(adj):
        raise ValueError("leaf stripping needs a forest")


def signature_triple(diag, neighbours) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a plumbing form.

    The form is given sparse, as ``PlumbingTree`` stores it: ``diag`` is
    its diagonal, and ``neighbours[i]`` lists the j with Q[i][j] = 1, every
    other off-diagonal entry being 0.  ``strip_forest`` strips it.  A
    vertex v carries its current diagonal as the quotient num[v] / den[v]
    with den[v] != 0, and num is the walk's pivot list:

    - a leaf v with nonzero diagonal counts its sign and is stripped into
      its neighbour u.  Its numerator and denominator are the
      determinants of the subtree stripped into v, with and without v,
      so u's become num[u] num[v] - den[u] den[v] and den[u] num[v], the
      integer recurrence for the determinant of a tree across one edge;
    - a leaf v with zero diagonal is eliminated with its neighbour u as
      the 2x2 block [[0, 1], [1, e]], whose determinant -1 < 0 gives one
      eigenvalue of each sign; the block's Schur complement is zero, so
      u's other neighbours keep their diagonals;
    - an isolated vertex counts its sign, or a zero eigenvalue.

    Every number is an integer.  Each step is a congruence, so by
    Sylvester's law of inertia the counts are exact.
    """
    num = list(diag)
    den = [1] * len(num)
    neg = zero = pos = 0
    for v, u, rest in strip_forest(neighbours, num):
        if rest is not None:
            pos += 1
            neg += 1
            continue
        N, D = num[v], den[v]
        if not N:  # an isolated vertex
            zero += 1
        elif (N > 0) == (D > 0):
            pos += 1
        else:
            neg += 1
        if u is not None:
            num[u] = num[u] * N - den[u] * D
            den[u] *= N
    return neg, zero, pos


# ---------------------------------------------------------------------------
# finite abelian groups presented by cokernels


@dataclass
class FiniteAbelianGroup:
    """The torsion of Z^n / im(M), in invariant-factor coordinates.

    ``factors`` is the chain d1 | d2 | ... with every di >= 2; the group
    is the direct sum of the Z/di, and any free rank of the cokernel is
    carried beside it (``cokernel``, ``manifolds.chain_group``).
    ``relations()`` builds M, whose one Smith form U M V = D gives the
    coordinates: U carries ambient integer vectors, the columns of a
    matrix, onto the torsion coordinates (``project_columns``), and
    M V / D gives the generators.  M is built and its Smith form taken
    on the first read of either, never where only the factors are read,
    and every copy ``dataclasses.replace`` makes shares that one form.
    ``lift`` writes ambient coordinate i as m times generator k, for
    (k, m) = lift[i], as ``PlumbingTree.lift`` does; () is the identity.
    """

    factors: tuple[int, ...]
    relations: Callable[[], list] = field(repr=False)  # () -> M
    lift: tuple[tuple[int, int], ...] = field(default=(), repr=False)
    _smith: list = field(default_factory=list, repr=False)  # [(M, U, D, V)] once taken

    @property
    def _form(self) -> tuple:
        """(M, U, D, V), taken on first read and kept for every copy."""
        if not self._smith:
            M = self.relations()
            self._smith.append((M, *smith_normal_form(M)))
        return self._smith[0]

    @lazy
    def _torsion_rows(self) -> tuple[tuple[int, ...], ...]:
        """Torsion rows of U, through the lift, taken when the group first projects."""
        _, U, D, _ = self._form
        rows = [(U[i], D[i][i]) for i in range(len(U)) if i < len(D[i]) and D[i][i] >= 2]
        lift = self.lift or [(k, 1) for k in range(len(U))]
        return tuple(tuple(u[k] * m % d for k, m in lift) for u, d in rows)

    @lazy
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """A generator of each invariant factor, as integer coefficients of
        the presentation's generators (the rows of M): column i of U^-1 for
        the torsion row i of U M V = D.  As M V = U^-1 D, that is column i
        of M V divided by D[i][i]."""
        M, _, D, V = self._form
        return tuple(
            tuple(sum(a * v[i] for a, v in zip(row, V)) // D[i][i] for row in M)
            for i in range(min(len(D), len(V)))
            if D[i][i] >= 2
        )

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def project_columns(self, rows) -> list[tuple[int, ...]]:
        """Torsion coordinates of each column of the matrix with these
        rows (ambient integer vectors as columns), in one pass over the
        rows."""
        width = len(rows[0]) if rows else 0
        coords = []
        for trow, d in zip(self._torsion_rows, self.factors):
            acc = [0] * width
            for t, row in zip(trow, rows):
                if t:
                    for c, a in enumerate(row):
                        if a:
                            acc[c] += t * a
            coords.append([x % d for x in acc])
        return list(zip(*coords)) if coords else [()] * width

    def reduce(self, coords) -> tuple[int, ...]:
        return tuple(map(mod, coords, self.factors))


def cokernel(M) -> tuple[int, FiniteAbelianGroup]:
    """(free rank, torsion) of Z^r / im(M), one generator per row of M and
    one relation per column, for M of any shape: the free rank is r minus
    the rank of M, and the torsion is presented by M.  The one Smith form
    of M is taken here and kept on the group."""
    U, D, V = smith_normal_form(M)
    diag = [D[i][i] for i in range(min(len(D), len(V)))]
    torsion = FiniteAbelianGroup(tuple(d for d in diag if d >= 2), lambda: M, _smith=[(M, U, D, V)])
    return len(M) - sum(map(bool, diag)), torsion


def cyclic_sum_factors(orders) -> list[int]:
    """The invariant factors e_1 | ... | e_n of the sum of the Z/a over n
    orders a >= 0, ones kept, with 0 for a free Z at the top.  Each a is
    merged into the chain of those before it from the bottom up: Z/d + Z/c
    is Z/gcd(d, c) + Z/lcm(d, c), so d gives way to gcd(d, c), which
    divides d and c and so the next d and the next carried lcm, and the
    lcm is carried on.  Once c divides d the rest of the chain moves up
    one place unchanged, so c is inserted there."""
    chain: list[int] = []
    for c in orders:
        i = 0
        while i < len(chain) and (g := math.gcd(chain[i], c)) != c:
            chain[i], c, i = g, chain[i] // g * c, i + 1
        chain.insert(i, c)
    return chain


@dataclass(eq=False)
class Subgroup:
    """Subgroup of a finite abelian group, canonically presented.

    ``basis`` is the Hermite basis of the lift lattice (generators plus
    relation lattice) inside Z^m, so two subgroups are equal iff their
    bases coincide; order, factors, membership and joins are read from
    it too.
    """

    parent: FiniteAbelianGroup
    generators: tuple[tuple[int, ...], ...]
    order: int
    basis: tuple[tuple[int, ...], ...]

    @lazy
    def factors(self) -> tuple[int, ...]:
        """Invariant factors: those of the cokernel of the relation lattice
        written in the lift basis, found by exact integer division pivot
        by pivot.  Taken on first use."""
        X = []
        for i, d in enumerate(self.parent.factors):
            v = [0] * len(self.basis)
            v[i] = d
            coeffs = []
            for j, row in enumerate(self.basis):
                c, rest = divmod(v[j], row[j])
                assert rest == 0, "relation lattice not inside lift lattice"
                coeffs.append(c)
                v = [a - c * b for a, b in zip(v, row)]
            X.append(coeffs)
        factors = cokernel(X)[1].factors
        assert math.prod(factors) == self.order
        return factors


def subgroup_from_generators(G: FiniteAbelianGroup, gens) -> Subgroup:
    """Subgroup of G spanned by elements given in torsion coordinates.

    The lift lattice is spanned by the relations, diag(G.factors), and
    the generators: its Hermite basis is the relations' diagonal with the
    generators reduced into it, so it is triangular of full rank and
    its index is the product of its pivots.  The order is |G| over that
    index.
    """
    m = len(G.factors)
    gens = tuple(G.reduce(g) for g in gens)
    relations = [tuple(d if j == i else 0 for j in range(m)) for i, d in enumerate(G.factors)]
    basis = hermite_row_basis(relations + list(dict.fromkeys(gens)), m)  # repeats add nothing
    return Subgroup(G, gens, G.order // math.prod(row[i] for i, row in enumerate(basis)), basis)


def direct_sum_test(
    G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup
) -> tuple[bool, bool, int]:
    """(is_direct_sum, isomorphic, |H1 meet H2|) inside G.

    The sum is direct and fills G iff |H1||H2| = |G| and |H1 + H2| = |G|;
    the intersection order is |H1||H2| / |H1 + H2|.  H2's lift basis is
    reduced into a copy of H1's, which is triangular of full rank, and
    |H1 + H2| is |G| over the product of the pivots of the result.
    """
    basis = list(H1.basis)
    _reduce_into(basis, H2.basis)
    joined = G.order // math.prod(row[i] for i, row in enumerate(basis))
    total = H1.order * H2.order
    assert total % joined == 0
    is_direct = total == G.order and joined == G.order
    return is_direct, H1.factors == H2.factors, total // joined


def doubled_factors(factors) -> tuple[int, ...]:
    """Invariant factors of H + H given those of H."""
    out = []
    for d in factors:
        out.append(d)
        out.append(d)
    return tuple(sorted(out))
