"""One decision engine: per-class check tables and one merge rule.

``full_report`` builds a ``ManifoldContext`` once per call, and every
check reads that context alone.  The context sorts the manifold into one
class, given by its Seifert view, so a pretzel cover runs its Seifert
space's table; the rows of the class's table run in order, and the
report keys each result by its row's name.  Each table is stated, with
the theorem behind its certificate rows, where it is defined below.

Merge rule: a completed refutation gives OBSTRUCTED, citing the first
row that fired by its key (or the class's theorem).  A default report
stops at that first refutation and keys only the rows that ran: the
status and the reason read no later row, and CONFLICT needs only one
refutation beside a catalog hit.  With certificates every row runs, the
certificate tail too, and with ``only`` every named row.  Failing a
refutation, a catalog hit gives EMBEDS, membership of the open pretzel
family gives UNKNOWN with that reason, and anything else is UNKNOWN.  A
catalog hit together with a refutation is an internal error, reported as
status CONFLICT and never silently resolved.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from .intlinalg import FiniteAbelianGroup, lazy
from .manifolds import (
    LensSum,
    Manifold,
    PretzelCover,
    SeifertManifold,
    chain_ends,
    chain_group,
    chains,
    euler_invariant,
    first_homology,
    lens_class,
    lens_mirror_class,
    normalize_seifert,
    pretzel_to_seifert,
)
from .obstructions import (
    PRINTED_ROWS,
    LinkingForm,
    ObstructionResult,
    built_pass,
    double_subset_obstruction,
    linking_form,
    nonhyperbolic_part,
    nonorientable_obstruction,
    odd_linking_factor,
    pairs_up,
    semidefinite_obstruction,
    undoubled,
)
from .plumbing import PlumbingTree, layout_size, plumbing_tree
from .spin import mubar_vanishing_threshold, spin_profile

DEFAULT_BUDGET = 10**7


# ---------------------------------------------------------------------------
# multiset pairings


def _matchable(items, partner) -> bool:
    counts = Counter(items)
    for x, cnt in counts.items():
        y = partner(x)
        if y == x:
            if cnt % 2:
                return False
        elif counts[y] != cnt:
            return False
    return True


def _mirror_matched(pairs) -> bool:
    """Do the lens classes L(p,q) of the (p, q) pairs split into mirror
    pairs L(p,q), L(p,p-q)?  Self-mirror classes (q^2 = -1 mod p) need
    even multiplicity."""

    return _matchable([lens_class(p, q) for p, q in pairs], lambda c: lens_mirror_class(*c))


def _residue_pairs(invariants):
    return [(a, b % a) for a, b in invariants]


def complementary_matched(invariants) -> bool:
    """Perfect matching of (a, b) with (a, -b) up to framing shifts."""

    def partner(item):
        a, beta = item
        return (a, (-beta) % a)

    return _matchable(_residue_pairs(invariants), partner)


def weak_complementary_matched(invariants) -> bool:
    """Matching of (a, b) with (a, -b) or (a, -b^-1); equivalently the
    fibre lens classes pair into mirrors."""
    return _mirror_matched(_residue_pairs(invariants))


def even_fibre_clause(invariants) -> bool:
    """Every two even-multiplicity fibres (a_i even, a_j even) must share
    a_i = a_j with b_i in {+-b_j, +-b_j^-1} mod a: all of them have one
    lens class L(a, b) up to mirror."""
    classes = {min(lens_class(a, b), lens_mirror_class(a, b)) for a, b in invariants if a % 2 == 0}
    return len(classes) <= 1


# ---------------------------------------------------------------------------
# pretzel families
#
# Over S^2 a space is keyed by its normalised invariants (r, fibres), every
# fibre (a, b) with -a < b < 0.  The strand multisets presenting Y, its
# Rolfsen-equivalent forms, are exactly those with Y's key, so Y is in a
# family up to mirror and Rolfsen twist when the key of Y or -Y is a member's.
# Up to mirror the embeddable covers are the doubly_slice_pretzel entry's
# families; OPEN_FAMILY stays UNKNOWN, and a completed check refutes the rest.

Key = tuple[int, tuple[tuple[int, int], ...]]
OPEN_FAMILY = "pretzel(2l-1,-2l-1,-2l^2)"


def _strand_key(strands) -> Key:
    """The key of Y(strands), with no Seifert space built: a strand x >= 2
    is the fibre (x, 1 - x), x <= -2 the fibre (-x, -1), and r is the
    number of -1 strands less the number of positive ones."""
    fibres = sorted((x, 1 - x) if x > 0 else (-x, -1) for x in strands if abs(x) > 1)
    return strands.count(-1) - sum(x > 0 for x in strands), tuple(fibres)


def _family_member(keys) -> tuple[str, tuple[int, ...]] | None:
    """(family, strands) of the member, up to mirror, of an embeddable
    family or of the open family whose key is one of ``keys``, which are
    not empty.  Only the members whose strands of size >= 2 have the
    fibre sizes of ``keys`` are keyed; a strand +-1 carries no fibre."""
    sizes = tuple(a for a, _ in keys[0][1])
    n = len(sizes)
    lo, a, hi = (sizes[0], sizes[n // 2], sizes[-1]) if n else (1, 1, 1)
    l = (lo + 1) // 2
    u, v, w = 2 * l - 1, 2 * l + 1, 2 * l * l  # the sizes of the open member l
    members = (
        (n in (0, 3) and lo == hi, "pretzel(a,-a,a)", (a, -a, a)),
        (n in (0, 4) and lo == hi, "pretzel(a,-a,a,-a)", (a, -a, a, -a)),
        # a or b odd; a = 1 leaves the sizes (b, b)
        (n == 2 and lo == hi, "pretzel(a,-a,b,-b) odd", (1, -1, a, -a)),
        (n == 4 and (lo % 2 or hi % 2), "pretzel(a,-a,b,-b) odd", (lo, -lo, hi, -hi)),
        # d = a +- 1; (a, d) = (1, 2) leaves the sizes (2,), and (2, 1) is
        # Y(2,-2,2)
        (sizes == (2,), "pretzel(a+-1,-a,a,-a)", (2, -1, 1, -1)),
        (n == 4 and abs(lo + hi - 2 * a) == 1, "pretzel(a+-1,-a,a,-a)", (lo + hi - a, -a, a, -a)),
        # l = 1 leaves the sizes (2, 3)
        (sizes in ((2, 3), (u, v, w)), OPEN_FAMILY, (u, -v, -w)),
    )
    return next(((family, m) for ok, family, m in members if ok and _strand_key(m) in keys), None)


# ---------------------------------------------------------------------------
# per-call context

# the one Seifert space that a report reads as a lens sum (``ManifoldContext``)
_RP2_BUNDLE, _RP3_SUM = SeifertManifold(False, 1, 0), LensSum([(2, 1), (2, 1)])


@dataclass
class ManifoldContext:
    """All that the checks of one ``full_report`` call read: the
    manifold, the node budget of each search, and the values below, each
    computed once, when first asked for.  The report's plumbings are one
    tree per side (``tree``)."""

    manifold: Manifold
    budget: int = DEFAULT_BUDGET
    _trees: dict[str, PlumbingTree] = field(default_factory=dict, init=False, repr=False)
    _searches: dict[tuple, ObstructionResult] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # seifert(N(1); 0; ), the circle bundle over RP^2 of Euler number 0,
        # is RP^3 # RP^3, the one Seifert fibred space that is not prime
        # (Scott, *The geometries of 3-manifolds*, Bull. London Math. Soc.
        # 15, 1983); r = 0, so it is its own mirror.  Every check reads it
        # as that lens sum, which LENS_SUM refutes, as 2 is even
        if self.manifold == _RP2_BUNDLE:
            self.manifold = _RP3_SUM

    @lazy
    def seifert(self) -> SeifertManifold | None:
        """The manifold as a Seifert space; None for a lens sum."""
        m = self.manifold
        if isinstance(m, PretzelCover):
            return pretzel_to_seifert(m)
        return m if isinstance(m, SeifertManifold) else None

    @lazy
    def euler(self) -> Fraction | None:
        return None if self.seifert is None else euler_invariant(self.seifert)

    @lazy
    def homology(self) -> tuple[int, FiniteAbelianGroup]:
        """(b_1, torsion of H_1) by ``first_homology``, with no plumbing
        built.  For a lens sum, and over an orientable base with e != 0,
        the torsion is coker Q of each definite plumbing (Neumann, Trans.
        AMS 268, 1981)."""
        return first_homology(self.seifert or self.manifold)

    @lazy
    def z2_rank(self) -> int:
        """m, the rank of H_1(Y; Z/2): b_1 plus the number of even
        invariant factors of the torsion.  Y has 2^m spin structures."""
        b1, torsion = self.homology
        return b1 + sum(d % 2 == 0 for d in torsion.factors)

    @lazy
    def linking_form(self) -> LinkingForm:
        """The linking form of the torsion of H_1 (``linking_form``)."""
        return linking_form(self.homology[1], *chain_ends(self.seifert or self.manifold))

    @lazy
    def coker(self) -> FiniteAbelianGroup | None:
        """coker Q of either side's form: the torsion of H_1, or over a
        non-orientable base the legs' group (``chain_group``), None with
        no legs.  Every side's search projects onto this one group."""
        if self.table is NONORIENTABLE:
            return chain_group(None, self.forest)[1] if self.forest else None
        return self.homology[1]

    @lazy
    def refutation(self) -> ObstructionResult | None:
        """The refutation a searched row takes with no tree, once for both
        sides: ``coker`` is not H + H (``undoubled``), or, on H_1, its
        linking form is not hyperbolic (``double_subset_obstruction``).
        None on the e = 0 rows, as ``linking_form`` would divide by e."""
        G = self.coker
        if self.table is ORIENTABLE_E0 or G is None:
            return None
        if self.table is NONORIENTABLE:
            return undoubled("nonorientable_double_subset", G)
        if refuted := undoubled("double_subset", G):
            return refuted
        if d := odd_linking_factor(G, self.linking_form):
            why = f"the linking form of coker Q is odd on its factor Z/{d}"
        elif part := nonhyperbolic_part(self.linking_form):
            piece = " + ".join([f"Z/{part[0]}"] * part[1])
            why = f"the linking form of coker Q is not hyperbolic on its part {piece}"
        else:
            return None
        return ObstructionResult("obstructed", notes=f"{why}, so no splitting pair exists")

    @lazy
    def lens_sum_fault(self) -> str | None:
        """Why a lens sum breaks the theorem's rule (``LENS_SUM``), or None."""
        summands = self.manifold.summands
        if not all(p % 2 for p, _ in summands):
            return "some p_i is even"
        return None if _mirror_matched(summands) else "no mirror matching of the summands"

    @lazy
    def complementary(self) -> bool:
        """Do the fibres pair into complements (``complementary_matched``)?"""
        return complementary_matched(self.seifert.invariants)

    @lazy
    def weak_paired(self) -> bool:
        """Do the fibres pair into weak complements (``weak_complementary_matched``)?"""
        return weak_complementary_matched(self.seifert.invariants)

    @lazy
    def forest(self) -> tuple[tuple[int, int], ...]:
        """The chain ends of the '+' plumbing (``chains``)."""
        return chains(self.seifert or self.manifold)

    @lazy
    def built_pair(self) -> ObstructionResult | None:
        """The pass of both searched rows, built with no search
        (``built_pass``), where the table's comment says it exists; else
        None."""
        if isinstance(self.manifold, LensSum) and self.lens_sum_fault is None:
            return built_pass("double_subset", self.forest, self.coker)
        if self.table is ORIENTABLE_E0 and self.complementary:
            return built_pass("semidefinite_subset", self.forest)
        legs = self.forest if self.table is NONORIENTABLE else ()
        if legs and self.weak_paired and even_fibre_clause(self.seifert.invariants):
            return built_pass("nonorientable_double_subset", legs, self.coker)
        return None

    @lazy
    def seifert_keys(self) -> tuple[Key, ...]:
        """The normalised Seifert keys (r, fibres) of Y and of -Y, none
        without a Seifert view over S^2; -Y is keyed (-r - n, (a, -a - b))
        for n fibres."""
        s = self.seifert
        if s is None or not s.base_orientable or s.genus:
            return ()
        norm = normalize_seifert(s)
        r, fibres = norm.r, norm.invariants
        return (r, fibres), (-r - len(fibres), tuple(sorted((a, -a - b) for a, b in fibres)))

    @lazy
    def pretzel_family(self) -> tuple[str, tuple[int, ...]] | None:
        """Y's pretzel family member (``_family_member``), or None."""
        return _family_member(self.seifert_keys) if self.seifert_keys else None

    @lazy
    def link_components(self) -> int | None:
        """Components k of the branch link of a pretzel presentation of Y;
        None when Y has none.  A k-component link L has 2^k Fox
        2-colourings, and they number 2 |H_1(Sigma_2(L); Z/2)|, so
        k = m + 1 (``z2_rank``).

        Whether a form exists is read off the key (r, fibres) of Y, with n
        fibres.  A strand form has one strand per fibre, -a for (a, -1)
        and +a for (a, 1 - a) (either, for a = 2: t of the ``twos`` such
        fibres read +2), plus x extra strands, p of them +1 and q of them
        -1, 3 to 4 strands in all.  r counts the -1 strands less the
        positive ones, so with owed = r + #(+a strands, a > 2):
        - q - p = owed + t and q + p = x;
        - so x >= |owed + t| and x has the parity of owed + t;
        - x ranges over {3 - n, 4 - n}, one of each parity, or only 0 when
          n = 4, and more than 4 fibres leave no form;
        - so a form exists iff some value in [owed, owed + twos] has
          absolute value at most 4 - n.
        """
        if not self.seifert_keys:
            return None
        r, fibres = self.seifert_keys[0]
        if any(b not in (-1, 1 - a) for a, b in fibres):
            return None
        n = len(fibres)
        owed = r + sum(a > 2 and b == 1 - a for a, b in fibres)
        twos = sum(a == 2 for a, _ in fibres)
        if n <= 4 and owed <= 4 - n and owed + twos >= n - 4:
            return self.z2_rank + 1
        return None

    def tree(self, side: str) -> PlumbingTree:
        """The standard plumbing (``plumbing_tree``) of one side, '+' or
        '-', built on first use and kept for the call.  Where the two
        sides' trees are equal, ``_searched`` alone shares their search."""
        if side not in self._trees:
            self._trees[side] = plumbing_tree(self.seifert or self.manifold, side)
        return self._trees[side]

    @lazy
    def definite_side(self) -> str:
        """The orientation whose plumbing is negative (semi)definite."""
        return "-" if self.table is ORIENTABLE and self.euler < 0 else "+"

    @lazy
    def table(self) -> CheckTable:
        """The check table of the manifold's class."""
        m, s = self.manifold, self.seifert
        if isinstance(m, LensSum):
            return LENS_SUM
        if s is None:
            raise TypeError(f"cannot classify {m!r}")
        if s.base_orientable and s.genus == 0 and len(s.invariants) <= 2:
            return LENS_SPACE
        if not s.base_orientable:
            return NONORIENTABLE
        return ORIENTABLE_E0 if self.euler == 0 else ORIENTABLE


# ---------------------------------------------------------------------------
# checks: each reads the context and returns its result, or None where it
# does not apply.  Layer functions are looked up by module-global name at
# call time.


def _judged(ok: bool, passed: str, failed: str, certificates=()) -> ObstructionResult:
    return ObstructionResult(
        "pass" if ok else "obstructed", list(certificates), passed if ok else failed
    )


def _torsion_square(ctx: ManifoldContext) -> ObstructionResult:
    """The torsion of H_1 of a closed orientable 3-manifold in S^4 splits
    as G + G, one G from each side (Hantzsche, *Einlagerung von
    Mannigfaltigkeiten in euklidische Räume*, Math. Z. 43, 1938); so its
    invariant factors pair up, and in particular its order is a square."""
    torsion = ctx.homology[1]
    order, root = torsion.order, math.isqrt(torsion.order)
    if root * root != order:
        return _judged(False, "", f"|torsion H_1| = {order} is not a perfect square")
    group = " + ".join(f"Z/{d}" for d in torsion.factors)
    return _judged(
        pairs_up(torsion.factors),
        f"|torsion H_1| = {order} = {root}^2",
        f"torsion H_1 = {group} is not of the form G + G",
    )


def _lens_mirror_pairing(ctx: ManifoldContext) -> ObstructionResult:
    fault = ctx.lens_sum_fault
    return _judged(fault is None, "summands pair into mirrors", fault)


def _complementary_pairs(ctx: ManifoldContext) -> ObstructionResult:
    return _judged(
        ctx.complementary,
        "invariants pair into complements",
        "invariants do not pair into complements",
    )


def _weak_complementary_pairs(ctx: ManifoldContext) -> ObstructionResult:
    return _judged(
        ctx.weak_paired,
        "invariants pair into weak complements",
        "invariants do not pair into weak complements",
    )


def _even_fibre_clause(ctx: ManifoldContext) -> ObstructionResult:
    return _judged(
        even_fibre_clause(ctx.seifert.invariants),
        "",
        "two even-a fibres violate the +-b, +-b^-1 clause",
    )


def _mubar_vanishing(ctx: ManifoldContext) -> ObstructionResult | None:
    k = ctx.link_components
    if k is None:
        return None
    mu_values = spin_profile(ctx.tree(ctx.definite_side), ctx.definite_side, k)
    vanishing = mu_values.count(0)
    threshold = mubar_vanishing_threshold(k)
    return _judged(
        vanishing >= threshold,
        f"{vanishing} of {len(mu_values)} mu-bar values vanish",
        f"only {vanishing} vanishing mu-bar values, need {threshold}",
        [{"mu_values": list(mu_values), "k": k, "threshold": threshold}],
    )


def _searched(name: str, ctx: ManifoldContext) -> ObstructionResult:
    """Searched row ``name`` on the '-' side for a ``_mirror`` row, else on
    the definite side: the pass built with no search (``built_pair``),
    else the refutation read with no tree (``refutation``), else, by the
    size rule, inconclusive with no plumbing built past PRINTED_ROWS rows
    (``plumbing.layout_size`` of the side's chains and a star's hub), but
    for ORIENTABLE's deciding double_subset.  Else the row's obstruction
    searches the side's tree once per (obstruction, tree) in a report:
    trees compare by weights and edges, so a mirror row on a tree equal
    to its twin's takes its twin's result.  This is the one place where
    the two sides share work."""
    if built := ctx.built_pair:
        return built
    if refuted := ctx.refutation:
        return refuted
    check = name.removesuffix("_mirror")
    side = "-" if check != name else ctx.definite_side
    if ctx.table is not ORIENTABLE:
        ends = [(q if side == "+" else -q, a) for q, a in ctx.forest]
        rows = layout_size(ends, ctx.table is ORIENTABLE_E0)
        if rows > PRINTED_ROWS:
            notes = f"its {rows} rows, past {PRINTED_ROWS}, are not searched"
            return ObstructionResult("inconclusive", notes=notes)
    tree = ctx.tree(side)
    key = (check, tree)
    if key not in ctx._searches:
        search = {
            "double_subset": double_subset_obstruction,
            "nonorientable_double_subset": nonorientable_obstruction,
            "semidefinite_subset": semidefinite_obstruction,
        }[check]
        group = () if check == "semidefinite_subset" else (ctx.coker,)
        ctx._searches[key] = search(tree, *group, ctx.budget)
    return ctx._searches[key]


# ---------------------------------------------------------------------------
# check tables, one per class

Check = Callable[[ManifoldContext], "ObstructionResult | None"]
Row = tuple[str, Check]


@dataclass(frozen=True)
class CheckTable:
    """The ordered (name, check) rows of one manifold class.  A refutation
    cites the first row that fired, or ``theorem`` for a class decided by
    one.  ``certificates`` is a tail of rows, run only on request, that by
    the table's comment refute nothing where the rows before them pass."""

    checks: tuple[Row, ...]
    theorem: str | None = None
    certificates: tuple[Row, ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.checks + self.certificates)


def _searched_rows(name: str) -> tuple[Row, Row]:
    """Searched row ``name`` and its mirror, both run by ``_searched``."""
    return tuple((row, partial(_searched, row)) for row in (name, f"{name}_mirror"))


_TORSION: Row = ("torsion_square", _torsion_square)
_DOUBLE = _searched_rows("double_subset")
_MUBAR: Row = ("mubar_vanishing", _mubar_vanishing)
_COMPLEMENTARY: Row = ("complementary_pairs", _complementary_pairs)

# A lens sum embeds iff every p_i is odd and the summands pair into mirrors,
# so torsion_square and lens_mirror_pairing decide it by the theorem; where
# they pass, both double-subset rows cite the pair built from its mirror
# chains (``built_pass``).
LENS_SUM = CheckTable(
    (_TORSION, ("lens_mirror_pairing", _lens_mirror_pairing)), certificates=_DOUBLE
)
# base S^2 with at most two fibres: a lens space.  S^3 and S^1 x S^2 embed,
# and any other has cyclic torsion H_1 != 0, which is never G + G.
LENS_SPACE = CheckTable((_TORSION,), theorem="lens_mirror_pairing")
# Non-orientable base: where weak_complementary_pairs and even_fibre_clause
# pass, both searched rows cite the legs' built pair (``built_pass``), or
# the empty form with no legs.
NONORIENTABLE = CheckTable(
    (
        _TORSION,
        ("weak_complementary_pairs", _weak_complementary_pairs),
        ("even_fibre_clause", _even_fibre_clause),
    ),
    certificates=_searched_rows("nonorientable_double_subset"),
)
# e = 0: where complementary_pairs passes, both certificate rows cite the
# rows built from the legs (``blown_up_pairs``).
ORIENTABLE_E0 = CheckTable(
    (_TORSION, _COMPLEMENTARY, _MUBAR), certificates=_searched_rows("semidefinite_subset")
)
ORIENTABLE = CheckTable((_TORSION, _DOUBLE[0], _MUBAR))

# every row name; ``--obstruction`` accepts exactly these
_TABLES = (LENS_SUM, LENS_SPACE, NONORIENTABLE, ORIENTABLE_E0, ORIENTABLE)
CHECK_NAMES = tuple(dict.fromkeys(name for t in _TABLES for name in t.names))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    construction: str
    matches: Callable[[ManifoldContext], bool]


def _is_trivial_embeddable(ctx: ManifoldContext) -> bool:
    # S^3 (the empty sum) and S^1 x S^2 (the lens-space class with trivial
    # torsion) sit inside S^4 classically
    if isinstance(ctx.manifold, LensSum):
        return not ctx.manifold.summands
    return ctx.table is LENS_SPACE and ctx.homology[1].order == 1


def _matches_lens_mirror(ctx: ManifoldContext) -> bool:
    m = ctx.manifold
    return isinstance(m, LensSum) and bool(m.summands) and ctx.lens_sum_fault is None


def _matches_doubly_slice_pretzel(ctx: ManifoldContext) -> bool:
    return ctx.pretzel_family is not None and ctx.pretzel_family[0] != OPEN_FAMILY


def _matches_odd_complementary_e0(ctx: ManifoldContext) -> bool:
    """e = 0 over an orientable base, every a_i odd, the fibres in
    complementary pairs."""
    s = ctx.seifert
    if s is None or not s.base_orientable:
        return False
    return ctx.euler == 0 and all(a % 2 for a, _ in s.invariants) and ctx.complementary


def _matches_nonorientable_surface_bundle(ctx: ManifoldContext) -> bool:
    """seifert(N(h); r; ) with no fibres, |r| <= 2h and r = 2h mod 4: the
    circle bundle over N_h of Euler number -r.  The set of Euler numbers
    is symmetric, so either orientation matches."""
    s = ctx.seifert
    if s is None or s.base_orientable or s.invariants:
        return False
    return abs(s.r) <= 2 * s.genus and (s.r - 2 * s.genus) % 4 == 0


_KIRBY_EXAMPLE = SeifertManifold(True, 0, 0, [(4, 1), (4, 1), (12, -7)])
_KIRBY_KEYS = ManifoldContext(_KIRBY_EXAMPLE).seifert_keys


def _matches_kirby_example(ctx: ManifoldContext) -> bool:
    return any(key in _KIRBY_KEYS for key in ctx.seifert_keys)


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "trivial",
        "S^3 and S^1 x S^2 bound standard pieces of S^4",
        _is_trivial_embeddable,
    ),
    CatalogEntry(
        "mirror_lens_sum",
        "double branched covers of sums K # -K of 2-bridge knots "
        "(twist-spun knots are doubly slice)",
        _matches_lens_mirror,
    ),
    CatalogEntry(
        "doubly_slice_pretzel",
        "covers of the doubly slice pretzel links P(a,-a,a), "
        "P(a,-a,a,-a), P(a,-a,b,-b) with a or b odd, P(a+-1,-a,a,-a)",
        _matches_doubly_slice_pretzel,
    ),
    CatalogEntry(
        "odd_complementary_e0",
        "Seifert manifolds with complementary pairs, all a_i odd, e = 0; "
        "with no fibres, Sigma_g x S^1 bounds Sigma_g x D^2 for an unknotted "
        "Sigma_g in S^3 in S^4",
        _matches_odd_complementary_e0,
    ),
    CatalogEntry(
        "nonorientable_surface_bundle",
        "circle bundles over N_h of Euler number e, |e| <= 2h, e = 2h mod 4: "
        "the boundary of a tubular neighbourhood of N_h in S^4, a sum of h "
        "standard RP^2s with normal Euler number e (Whitney; Massey, Pacific "
        "J. Math. 31, 1969)",
        _matches_nonorientable_surface_bundle,
    ),
    CatalogEntry(
        "surgery_example_4_4_12",
        "handle-calculus embedding of the (4,1),(4,1),(12,-7) space",
        _matches_kirby_example,
    ),
)


def catalog_matches(ctx: ManifoldContext) -> list[CatalogEntry]:
    return [entry for entry in CATALOG if entry.matches(ctx)]


# ---------------------------------------------------------------------------
# full report


class RowError(ValueError):
    """A row that ``full_report``'s ``only`` names is not one of the
    class's rows, or returns no result: a usage error."""


@dataclass
class ObstructionReport:
    """What a report decided, with no layout: the invariants b_1, the
    torsion factors of H_1, e (None with no Seifert view) and m, the rank
    of H_1(Y; Z/2) (``ManifoldContext.z2_rank``); each row's result keyed
    by the row that ran it, in run order, where twin rows that share a
    search, a built pair or a refutation hold the same object; and the
    merged status and reason.  ``cli`` lays it out."""

    manifold: Manifold
    b1: int
    torsion_factors: tuple[int, ...]
    euler: Fraction | None
    z2_rank: int
    results: dict[str, ObstructionResult]
    status: str
    reason: str


def full_report(
    m: Manifold,
    budget: int = DEFAULT_BUDGET,
    only: list[str] | None = None,
    certificates: bool = False,
) -> ObstructionReport:
    """Run the rows of the manifold's check table and merge the results
    with the catalog by the merge rule of the module docstring.  A name
    of ``only`` that the class has no row for, or whose row returns no
    result, raises RowError."""
    ctx = ManifoldContext(m, budget)
    table = ctx.table
    rows = table.checks + (table.certificates if certificates or only else ())
    if only is not None:
        if missing := [name for name in only if name not in table.names]:
            names = ", ".join(table.names)
            raise RowError(f"{m.describe()} has no row {missing[0]}; its rows: {names}")
        rows = tuple(row for row in rows if row[0] in only)
    results = {}
    for name, check in rows:
        if (r := check(ctx)) is not None:
            results[name] = r
            if r.obstructed and not certificates and only is None:
                break
        elif only is not None:
            raise RowError(f"row {name} does not apply to {m.describe()}")

    hits = catalog_matches(ctx)
    obstructed = [name for name, r in results.items() if r.obstructed]
    if hits and obstructed:
        status, reason = "CONFLICT", (
            f"catalog:{hits[0].name} contradicts obstruction:{obstructed[0]}"
        )
    elif obstructed:
        theorem = table.theorem
        status = "OBSTRUCTED"
        reason = f"theorem:{theorem}" if theorem else f"obstruction:{obstructed[0]}"
    elif hits:
        status, reason = "EMBEDS", f"catalog:{hits[0].name}"
    elif ctx.pretzel_family is not None:  # with no catalog hit, the open family
        status, reason = "UNKNOWN", f"open_family:{OPEN_FAMILY}"
    else:
        status, reason = "UNKNOWN", "no obstruction fired; no catalog entry"

    b1, torsion = ctx.homology
    return ObstructionReport(
        m, b1, torsion.factors, ctx.euler, ctx.z2_rank, results, status, reason
    )
