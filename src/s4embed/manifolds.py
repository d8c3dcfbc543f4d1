"""The three input classes: lens-space sums, Seifert fibred spaces, and
double branched covers of 3/4-strand pretzel links.

Conventions.  L(p, q) with p > q > 0 is -p/q surgery on the unknot;
reversing orientation sends (p, q) to (p, p - q), and L(p, q) = L(p, q')
iff q' = q or q q' = 1 mod p.  A Seifert manifold is written with a
central framing r and singular-fibre invariants (a_i, b_i), a_i >= 2,
so its generalised Euler invariant is e = sum(b_i / a_i) - r.  The
pretzel cover Y(a_1, ..., a_n) is the Seifert space over S^2 with r = 0
and one fibre (|a_i|, sign a_i) per strand; +-1 strands twist away into
the central framing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import FiniteAbelianGroup, cyclic_sum_factors


# ---------------------------------------------------------------------------
# negative continued fractions


def neg_continued_fraction(p: int, q: int) -> tuple[int, ...]:
    """Expand p/q = [a1, ..., an]^- with every ai >= 2.

    Requires p > q > 0 coprime; the expansion with all entries >= 2 is
    unique and gives the weights (negated) of the linear plumbing chain
    bounding L(p, q).
    """
    if not (p > q > 0):
        raise ValueError(f"need p > q > 0, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) not coprime")
    seq = []
    while q:
        a = -((-p) // q)  # ceil(p / q)
        seq.append(a)
        p, q = q, a * q - p
    return tuple(seq)


def chain_length(p: int, q: int) -> int:
    """len(neg_continued_fraction(p, q)), in O(log p) steps: while
    d = p - q is at most q the next entry is 2, and the step
    (p, q) -> (q, q - d) keeps d, so the run of floor(q / d) entries 2 is
    taken at once."""
    n = 0
    while q:
        d = p - q
        if d <= q:
            run, q = divmod(q, d)
            n, p = n + run, q + d
        else:
            n, p, q = n + 1, q, -(-p // q) * q - p
    return n


# ---------------------------------------------------------------------------
# lens spaces


def normalize_lens(p: int, q: int) -> tuple[int, int]:
    """Push q into (0, p) and check the coprimality contract."""
    if p < 2:
        raise ValueError(f"lens space needs p >= 2, got p = {p}")
    q %= p
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    return p, q


def lens_class(p: int, q: int) -> tuple[int, int]:
    """Diffeomorphism class of L(p, q): p and the lesser of q, q^-1 mod p."""
    p, q = normalize_lens(p, q)
    return p, min(q, pow(q, -1, p))


def lens_mirror_class(p: int, q: int):
    return lens_class(p, p - q)


@dataclass(frozen=True)
class LensSum:
    """Connected sum # L(p_i, q_i); the empty sum is S^3."""

    summands: tuple[tuple[int, int], ...]

    def __init__(self, summands=()):
        norm = sorted(normalize_lens(p, q) for p, q in summands)
        object.__setattr__(self, "summands", tuple(norm))

    def describe(self) -> str:
        if not self.summands:
            return "S3"
        return " + ".join(f"lens({p},{q})" for p, q in self.summands)


# ---------------------------------------------------------------------------
# Seifert manifolds


@dataclass(frozen=True)
class SeifertManifold:
    """Base surface, central framing, and singular-fibre invariants.

    ``base_orientable`` with ``genus`` g >= 0, or a non-orientable base
    with ``genus`` crosscaps >= 1.  Invariants are stored as given
    (``normalize_seifert`` shifts every b_i into (-a_i, 0)).
    """

    base_orientable: bool
    genus: int
    r: int
    invariants: tuple[tuple[int, int], ...]

    def __init__(self, base_orientable=True, genus=0, r=0, invariants=()):
        invs = []
        for a, b in invariants:
            if a < 2:
                raise ValueError(f"fibre invariant needs a >= 2, got ({a},{b})")
            if math.gcd(a, b) != 1:
                raise ValueError(f"fibre invariant ({a},{b}) not coprime")
            invs.append((a, b))
        if genus < 0 or (not base_orientable and genus == 0):
            raise ValueError("bad base genus")
        object.__setattr__(self, "base_orientable", base_orientable)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "invariants", tuple(sorted(invs)))

    def describe(self) -> str:
        base = (
            ("S2" if self.genus == 0 else f"O({self.genus})")
            if self.base_orientable
            else f"N({self.genus})"
        )
        pairs = ",".join(f"({a},{b})" for a, b in self.invariants)
        return f"seifert({base}; {self.r}; {pairs})"


def euler_times(hub: int, ends) -> tuple[int, int]:
    """(E, P) for a hub of weight w and chain ends (q_k, a_k)
    (``chain_ends``): P = prod a_k and E = -w P - sum q_k P / a_k, so
    that e = E / P, in integers."""
    P = math.prod(a for _, a in ends)
    return -hub * P - sum(q * (P // a) for q, a in ends), P


def euler_invariant(m: SeifertManifold) -> Fraction:
    """e(Y) = sum b_i/a_i - r, an invariant of the unnormalised data."""
    return Fraction(*euler_times(m.r, chains(m)))


def normalize_seifert(m: SeifertManifold) -> SeifertManifold:
    """Equivalent description with a_i > -b_i > 0; e(Y) is unchanged.

    Each b_i is shifted by a multiple of a_i into (-a_i, 0) and the
    central framing absorbs the shifts.
    """
    r = m.r
    invs = []
    for a, b in m.invariants:
        b_new = b % a - a  # lies in (-a, 0)
        k = (b - b_new) // a
        r -= k
        invs.append((a, b_new))
    return SeifertManifold(m.base_orientable, m.genus, r, invs)


# ---------------------------------------------------------------------------
# pretzel covers


@dataclass(frozen=True)
class PretzelCover:
    """Double branched cover of the pretzel link P(a_1, ..., a_n)."""

    strands: tuple[int, ...]

    def __init__(self, strands):
        strands = tuple(sorted(strands, reverse=True))
        if not 3 <= len(strands) <= 4:
            raise ValueError("pretzel covers need 3 or 4 strands")
        if any(a == 0 for a in strands):
            raise ValueError("zero strand")
        object.__setattr__(self, "strands", strands)

    def describe(self) -> str:
        return f"pretzel({','.join(str(a) for a in self.strands)})"


def pretzel_to_seifert(m: PretzelCover) -> SeifertManifold:
    """Seifert form of the cover: fibres (|a|, sign a), r = 0.

    Strands of absolute value one carry no singular fibre; a Rolfsen
    twist absorbs each into the central framing.
    """
    r = 0
    invs = []
    for a in m.strands:
        if abs(a) == 1:
            r -= a  # (1, s) fibre: drop it, r -> r - s keeps e and Y
        else:
            invs.append((abs(a), 1 if a > 0 else -1))
    return SeifertManifold(True, 0, r, invs)


# ---------------------------------------------------------------------------
# first homology

Manifold = LensSum | SeifertManifold | PretzelCover


def chains(m: LensSum | SeifertManifold) -> tuple[tuple[int, int], ...]:
    """The chain ends (q, a) of the '+' plumbing, with no hub: (q, p) for
    a summand L(p, q) and (-b, a) for a fibre (a, b).  q and a are the m
    of a chain's innermost vertex and just past it, in the lift that
    ``plumbing._chains`` lays out."""
    if isinstance(m, LensSum):
        return tuple((q, p) for p, q in m.summands)
    return tuple((-b, a) for a, b in m.invariants)


def chain_ends(m: LensSum | SeifertManifold) -> tuple[int | None, tuple[tuple[int, int], ...]]:
    """The hub weight w = r and the ``chains`` of a lens sum or an
    orientable-base space; a lens sum has no hub, nor has a space with no
    fibres, a lone vertex (1, -r).  Normalising a fibre shifts q by t a
    and w by -t, adding t (a_k g_k - a_0 g_0) to the hub relation
    (``chain_group``), so fibres as given present the same group on the
    same g_k, with the same e and q^-1 mod a."""
    if isinstance(m, LensSum):
        return None, chains(m)
    if not m.invariants:
        return None, ((1, -m.r),)
    return m.r, chains(m)


def chain_group(hub: int | None, ends) -> tuple[int, FiniteAbelianGroup]:
    """(free rank, torsion) of coker Q of a plumbing, presented n x n on
    its n chain ends g_k (``chain_ends``): a_k g_k = 0 with no hub; with
    one, whose class is a_0 g_0, a_k g_k = a_0 g_0 for k >= 1 and
    (w a_0 + q_0) g_0 + sum over k >= 1 of q_k g_k = 0.
    ``PlumbingTree.lift`` writes vertices in the g_k.  The torsion keeps
    the whole presentation and reads its Smith form on the torsion rows.

    The factors are read in closed form.  Let e_1 | ... | e_n be those of
    the sum of the Z/|a_k|, ones kept (``cyclic_sum_factors``).  With no
    hub that sum is the group.  With one, and (E, P) =
    ``euler_times(w, ends)``, the group is Z/e_1 + ... + Z/e_(n-2) +
    Z/(|E| / (e_1 ... e_(n-2))), or the first n - 2 of these plus Z when
    E = 0.

    Proof, prime by prime: over Z localised at l, take h = a_0 g_0 as a
    generator with a_k g_k = h for every k and w h + sum q_k g_k = 0, and
    the leg k* of largest l-valuation v(a_k*).  If l does not divide
    a_k*, every g_k is a unit times h and the l-part is cyclic.  Else
    q_k* is a unit, as gcd(q_k, a_k) = 1, so leg k*'s relation solves for
    h, and then the hub relation's coefficient w a_k* + q_k* on g_k* is a
    unit, so it solves for g_k*.  What is left on the other g_k is
    R = diag(a_k) + a_k* 1 u^t, with u_k a unit multiple of q_k.  A
    k-minor of R is nonzero only on rows and columns that share all but
    at most one index, and is then a sum of integer multiples of products
    of k distinct a's, with a_k* the largest, so its valuation is at
    least s_k, the sum of the k least valuations v_1 <= v_2 <= ....  Some
    minor attains s_k: if v_k < v(a_k*), the principal minor on the k
    least does, as each term with a_k* in it has a higher valuation;
    if v_k = v(a_k*) > 0, the one on the k - 1 least with one more row i
    and another column j does, as it is a unit times a_k* u_j times the
    k - 1 least a's, and at least n - k >= 2 legs of valuation v(a_k*)
    are left for k <= n - 2, each with q a unit.  So the first n - 2
    determinantal divisors of R are l^s_k, and the (n - 1)-th is
    det R; the l-parts of the e_k are l^v_k, and the group's order is
    |E| = |e| prod a_k (``torsion_order``), or it is infinite when
    E = 0 and R is singular."""
    n = len(ends)
    factors = cyclic_sum_factors(abs(a) for _, a in ends)
    free = factors.count(0)
    if hub is not None:
        E = abs(euler_times(hub, ends)[0])
        factors, free = factors[: max(n - 2, 0)], int(E == 0)
        factors.append(E // math.prod(factors))

    def relations() -> list[list[int]]:
        if hub is None:
            return [[a * (i == j) for j in range(n)] for i, (_, a) in enumerate(ends)]
        (q0, a0), *legs = ends  # a row per g_k, a column per relation
        rows = [[-a0] * (n - 1) + [hub * a0 + q0]]
        return rows + [[a * (i == j) for j in range(n - 1)] + [q] for i, (q, a) in enumerate(legs)]

    return free, FiniteAbelianGroup(tuple(d for d in factors if d >= 2), relations)


def first_homology(m: LensSum | SeifertManifold) -> tuple[int, FiniteAbelianGroup]:
    """(b_1, torsion) of the manifold, every factor in closed form: a lens
    sum or an orientable base by ``chain_group`` on its chain ends, N(k)
    as a sum of cyclic groups.  Genus adds free summands only, 2g over
    O(g) and k - 1 over N(k).

    Over N(k) the torsion is the sum of the Z/a_i with one change at 2:
    with no a_i even, Z/4 is added when r + sum b_i is odd, else
    Z/2 + Z/2; else, of the t fibres whose a has the top 2-valuation V,
    one a is multiplied by 4 when t is odd, and two by 2 each when t is
    even.  Proof, prime by prime.  H_1 is presented on the crosscaps
    v_1..v_k, the fibre meridians x_i and the central curve h by
    a_i x_i + b_i h, 2h (each crosscap reverses the fibre) and
    2u + sum x_i + r h, u = v_1 + ... + v_k, so v_2..v_k are the k - 1
    free summands.  At an odd prime 2 is a unit, so h = 0, u
    is solved for and the Z/a_i are left.  At 2, x_i of odd a_i is a unit
    times h.  With no even a_i, u and h are left with 2h = 0 and
    2u + c h = 0, c = r + sum b_i mod 2 (as a_i^-1 is odd): Z/4 for odd
    c, else Z/2 + Z/2.  Else b_j is a unit for even a_j = 2^v_j o_j, and
    y_j = -o_j b_j^-1 x_j has 2^v_j y_j = h, and x_j is a unit times
    y_j.  Take j* of v = V; z_j = y_j - 2^(V - v_j) y_j* has order
    2^v_j, y_j* order 2^(V + 1), and the last relation reads
    2u + sum w_j z_j + s y_j* = 0 with units w_j and s = t mod 2.  For
    odd t it solves for y_j*, and 2^(V + 1) y_j* = 0 becomes
    2^(V + 2) u = 0: the 2-part is Z/2^(V + 2) and the Z/2^v_j, j != j*.
    For even t it solves for z_j' of another j' of v = V, whose
    2^V z_j' = 0 becomes 2^(V + 1) u = 0 (2^V s y_j* = 0 for even s):
    (Z/2^(V + 1))^2 and the Z/2^v_j, j != j*, j'."""
    if isinstance(m, SeifertManifold) and not m.base_orientable:
        orders = [a for a, _ in m.invariants]
        twos = [a & -a for a in orders]  # 2^v, the 2-part of a
        high = max(twos, default=1)  # 2^V
        top = [i for i, d in enumerate(twos) if d == high]
        if high == 1:
            orders += [4] if (m.r + sum(b for _, b in m.invariants)) % 2 else [2, 2]
        elif len(top) % 2:
            orders[top[0]] *= 4
        else:
            orders[top[0]] *= 2
            orders[top[1]] *= 2
        return m.genus - 1, chain_group(None, [(1, a) for a in orders])[1]
    free, torsion = chain_group(*chain_ends(m))
    return free + (2 * m.genus if isinstance(m, SeifertManifold) else 0), torsion


def torsion_order(m: Manifold) -> int:
    """The order of the torsion of H_1, read off the input's integers with
    no presentation reduced:
    - a lens sum: prod p_i;
    - a non-orientable base: 4 prod a_i (``first_homology``);
    - an orientable base with e != 0: |E| = |e| prod a_i (``chain_group``);
    - an orientable base with e = 0: prod a_i / L^2, L = lcm(a_i).  The
      presentation on q_1..q_n, h with relations a_i q_i + b_i h and
      q_1 + ... + q_n + r h then has rank n, so its adjugate is c x y^t,
      with x and y the primitive vectors (-b_i L / a_i; L) and
      (-L / a_i; L) of its kernel and cokernel, and the order, the gcd of
      its n-minors, is |c|.  The minor of the a_i q_i rows and columns
      is prod a_i = +-c L^2;
    - a pretzel cover, as its Seifert space: a strand +-1 carries no
      fibre, so prod a_i is the product of the |x| over its strands x,
      and e = sum 1/x."""
    if isinstance(m, LensSum):
        return math.prod(p for p, _ in m.summands)
    if isinstance(m, PretzelCover):  # a strand x is the end (-sign x, |x|)
        hub, ends = 0, [(-1 if x > 0 else 1, abs(x)) for x in m.strands]
    else:
        hub, ends = m.r, chains(m)
    E, P = euler_times(hub, ends)
    if isinstance(m, SeifertManifold) and not m.base_orientable:
        return 4 * P
    return abs(E) or P // math.lcm(*(a for _, a in ends)) ** 2
