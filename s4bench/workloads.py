"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed population of 3-manifolds.  The seed chooses how
each one is written and the order in which they are sent: strand, summand
and fibre order, mirror image, framing shifts (a fibre (a, b) written as
(a, b + ka) with r moved by k, a summand L(p, q) as lens(p, q + kp)) and,
over a non-orientable base, the genus and central framing, which leave
the searched form unchanged.  None of these choices changes the form the
program searches, so every seed does the same work.  Per-input cost spans
three orders of magnitude (0.5 ms to 2 s), and a random draw small enough
to time in one run would vary from seed to seed by more than the bounds
the benchmark sets.

A case carries the DSL string the program sees, the CLI flags, and the
set of verdicts the benchmark accepts, worked out in ``reference`` from
how the input was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement
from math import gcd, isqrt

import reference as ref


@dataclass(frozen=True)
class Case:
    expr: str
    flags: tuple[str, ...]
    allowed: frozenset[str]
    kind: str
    # obstruction name -> lens summands of the form it searches, for
    # checking subset certificates
    chains: dict = field(default_factory=dict, compare=False, hash=False)
    # index of the manifold in the workload's population, the same for
    # every seed
    key: int = -1


def _units(a: int) -> list[int]:
    return [b for b in range(1, a) if gcd(a, b) == 1]


def _keyed(rng: random.Random, cases: list[Case]) -> list[Case]:
    """The cases keyed by population index, in a seeded sending order."""
    cases = [replace(case, key=i) for i, case in enumerate(cases)]
    rng.shuffle(cases)
    return cases


def _lens_classes(p: int) -> list[int]:
    """One q per diffeomorphism class of L(p, q)."""
    return sorted({ref.lens_class(p, q)[1] for q in _units(p)})


# ---------------------------------------------------------------------------
# pretzel_grid


PRETZEL_MAX = 7


def _pretzel_population() -> list[tuple[int, ...]]:
    """All 560 three-strand covers with 1 <= |a_i| <= 7 and a fixed sample
    of 500 of the 2380 four-strand ones."""
    values = [a for a in range(-PRETZEL_MAX, PRETZEL_MAX + 1) if a]
    three = list(combinations_with_replacement(values, 3))
    four = list(combinations_with_replacement(values, 4))
    return three + random.Random(0).sample(four, 500)


def _pretzel_case(rng: random.Random, strands) -> Case:
    s = [-a for a in strands] if rng.random() < 0.5 else list(strands)
    rng.shuffle(s)
    return Case(
        f"pretzel({','.join(map(str, s))})",
        ("--json",),
        frozenset({ref.pretzel_verdict(s)}),
        f"pretzel{len(s)}",
    )


def pretzel_grid(seed: int | str) -> list[Case]:
    rng = random.Random(seed)
    return _keyed(rng, [_pretzel_case(rng, strands) for strands in _pretzel_population()])


# ---------------------------------------------------------------------------
# lens_certificates


def _lens_population() -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """Lens sums with 2 to 4 summands and square |H_1|: mirror-matched ones
    and ones with an even p or no mirror matching."""
    out = []
    for p in range(3, 12):  # every L(p, q) + L(p, q')
        for pair in combinations_with_replacement(_lens_classes(p), 2):
            out.append(("two", tuple((p, q) for q in pair)))
    for p in range(3, 9):  # two mirror pairs of one order
        types = sorted({min(q, ref.lens_class(p, -q)[1]) for q in _lens_classes(p)})
        for t1, t2 in combinations_with_replacement(types, 2):
            four = ((p, t1), (p, -t1), (p, t2), (p, -t2))
            out.append(("mirror_four", tuple(ref.lens_class(p, q) for p, q in four)))
    for p in range(3, 7):  # every four-summand sum of one small order
        for quad in combinations_with_replacement(_lens_classes(p), 4):
            out.append(("four", tuple((p, q) for q in quad)))
    for p in range(3, 8):  # L(p, q) + L(p, q') + L(s^2, 1)
        for pair in combinations_with_replacement(_lens_classes(p), 2):
            for s2 in (4, 9):
                out.append(("three", tuple((p, q) for q in pair) + ((s2, 1),)))
    return out


def _lens_case(rng: random.Random, kind: str, summands) -> Case:
    if rng.random() < 0.5:
        summands = [(p, p - q) for p, q in summands]
    summands = list(summands)
    rng.shuffle(summands)
    expr = "+".join(f"lens({p},{q + rng.randint(-1, 1) * p})" for p, q in summands)
    summands = tuple(summands)
    return Case(
        expr,
        ("--json", "--certificates"),
        frozenset({ref.lens_sum_verdict(summands)}),
        kind,
        {
            "double_subset": summands,
            "double_subset_mirror": tuple((p, p - q) for p, q in summands),
        },
    )


def lens_certificates(seed: int | str) -> list[Case]:
    rng = random.Random(seed)
    return _keyed(rng, [_lens_case(rng, kind, s) for kind, s in _lens_population()])


# ---------------------------------------------------------------------------
# lattice_search


SEIFERT_MAX = 13


def _seifert_expr(rng: random.Random, base: str, r: int, fibres) -> str:
    """Seifert DSL with each fibre shifted by a random multiple of a."""
    shifted = []
    for a, b in fibres:
        k = rng.randint(-1, 1)
        shifted.append((a, b + k * a))
        r += k
    rng.shuffle(shifted)
    pairs = ",".join(f"({a},{b})" for a, b in shifted)
    return f"seifert({base};{r};{pairs})"


def _mirror(rng: random.Random, r: int, fibres):
    if rng.random() < 0.5:
        return -r, [(a, -b) for a, b in fibres]
    return r, list(fibres)


def _fibre_types(a_values) -> list[tuple[int, int]]:
    """Fibres (a, b) with 0 < b < a, one per complementary pair {b, -b}."""
    return [(a, b) for a in a_values for b in _units(a) if b <= a - b]


def _lattice_population() -> list[tuple[str, object]]:
    out = []
    for p in range(3, 41):  # lens(p,1) + lens(p,p-1): p-vertex chains
        out.append(("chain", p))
    every = range(2, SEIFERT_MAX + 1)
    odd = range(3, 12, 2)
    for a, b in _fibre_types(every):  # one complementary pair: S^1 x S^2
        out.append(("complementary1", ((a, b), (a, -b))))
    for (a1, b1), (a2, b2) in combinations_with_replacement(_fibre_types(odd), 2):
        out.append(("complementary2", ((a1, b1), (a1, -b1), (a2, b2), (a2, -b2))))
    weak = set()  # one weak complementary pair (a, b), (a, -b^+-1)
    for a in every:
        for b in _units(a):
            for partner in (-b, -pow(b, -1, a)):
                weak.add(tuple(sorted(((a, b), (a, partner % a)))))
    for pair in sorted(weak):
        out.append(("nonorientable", pair))
    for p1, p2 in combinations_with_replacement(sorted(w for w in weak if w[0][0] <= 5), 2):
        out.append(("nonorientable", p1 + p2))
    for a in every:  # one or two fibres, |H_1| in {0, 1} or a square
        for b in _units(a):
            for r in range(-2, 3):
                if isqrt(abs(b - r * a)) ** 2 == abs(b - r * a):
                    out.append(("small_seifert", (r, ((a, b),))))
    for (a1, b1), (a2, b2) in combinations_with_replacement(_fibre_types(range(2, 8)), 2):
        for s1, s2 in ((1, 1), (1, -1)):
            fibres = ((a1, s1 * b1), (a2, s2 * b2))
            num = s1 * b1 * a2 + s2 * b2 * a1  # e * a1 * a2 = num - r * a1 * a2
            for r in range(-2, 3):
                if abs(num - r * a1 * a2) in (0, 1):
                    out.append(("small_seifert", (r, fibres)))
    return out


def _lattice_case(rng: random.Random, kind: str, data) -> Case:
    flags = ("--json",)
    if kind == "chain":
        summands = [(data, 1), (data, data - 1)]
        rng.shuffle(summands)
        expr = "+".join(f"lens({p},{q + rng.randint(-1, 1) * p})" for p, q in summands)
        return Case(expr, flags, frozenset({ref.lens_sum_verdict(summands)}), kind)
    if kind.startswith("complementary"):
        # e = 0 with complementary pairs: S^1 x S^2 for one pair, embedded
        # (Donald) for two pairs with every a_i odd
        r, fibres = _mirror(rng, 0, data)
        return Case(_seifert_expr(rng, "S2", r, fibres), flags, frozenset({ref.EMBEDS}), kind)
    if kind == "nonorientable":
        # the cheap conditions pass; nothing certifies an embedding
        r, fibres = _mirror(rng, rng.randint(-2, 2), data)
        base = f"N({rng.randint(1, 2)})"
        allowed = frozenset({ref.UNKNOWN, ref.OBSTRUCTED})
        return Case(_seifert_expr(rng, base, r, fibres), flags, allowed, kind)
    r, fibres = _mirror(rng, *data)
    allowed = frozenset({ref.small_seifert_verdict(r, fibres)})
    return Case(_seifert_expr(rng, "S2", r, fibres), flags, allowed, kind)


def lattice_search(seed: int | str) -> list[Case]:
    rng = random.Random(seed)
    return _keyed(rng, [_lattice_case(rng, kind, data) for kind, data in _lattice_population()])


WORKLOADS = {
    "pretzel_grid": pretzel_grid,
    "lens_certificates": lens_certificates,
    "lattice_search": lattice_search,
}
