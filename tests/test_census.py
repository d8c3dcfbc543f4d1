"""A pinned verdict census over four Seifert sweeps.

Every space of a sweep runs through ``full_report`` with a fixed budget.
The census counts the spaces by (status, reason) and lists every
UNKNOWN input; ``golden/census.json`` pins both for each sweep, so a
change that moves any verdict shows as a diff of that file.  Every space
is also reported with its orientation reversed, and must get the same
status.

- S5: orientable base S^2, three fibres (a, b) with 2 <= a <= 5 and
  0 < b < a coprime, central framing r in [-2, 2];
- N7: non-orientable bases N(1) and N(2), zero to two such fibres with
  a <= 7, r in [-3, 3];
- S7: orientable base S^2, three or four fibres with a <= 7, r in [-2, 2];
- S11: orientable base S^2, three fibres with a <= 11, r in [-2, 2].

Every space with a pretzel form must also get the status of each
pretzel cover presenting it or its mirror (``pretzel_form_faults``).

The tests check S5 and N7, and the pretzel forms of S5, which take a few
seconds.  To check all four sweeps and the pretzel forms of S5, S7 and
S11, which took 11 s of CPU in all on a shared 2-vCPU host::

    PYTHONPATH=src python tests/test_census.py --check

To record the census of all four again from the current code::

    PYTHONPATH=src python tests/test_census.py
"""

import itertools
import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

from s4embed.classify import ManifoldContext, _strand_key, full_report
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold

CENSUS = Path(__file__).parent / "golden" / "census.json"
BUDGET = 10**5


def mirror(m):
    """-Y: L(p, q) -> L(p, p - q) per summand; r -> -r and (a, b) -> (a, -b)
    for a Seifert space; a_i -> -a_i per strand for a pretzel cover."""
    if isinstance(m, LensSum):
        return LensSum([(p, p - q) for p, q in m.summands])
    if isinstance(m, SeifertManifold):
        return SeifertManifold(m.base_orientable, m.genus, -m.r, [(a, -b) for a, b in m.invariants])
    return PretzelCover([-a for a in m.strands])


def fibres(a_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(2, a_max + 1) for b in range(1, a) if math.gcd(a, b) == 1]


def sweep_s5() -> list[SeifertManifold]:
    return [
        SeifertManifold(True, 0, r, list(invs))
        for invs in itertools.combinations_with_replacement(fibres(5), 3)
        for r in range(-2, 3)
    ]


def sweep_n7() -> list[SeifertManifold]:
    return [
        SeifertManifold(False, genus, r, list(invs))
        for genus in (1, 2)
        for k in range(3)
        for invs in itertools.combinations_with_replacement(fibres(7), k)
        for r in range(-3, 4)
    ]


def sweep_s7() -> list[SeifertManifold]:
    return [
        SeifertManifold(True, 0, r, list(invs))
        for k in (3, 4)
        for invs in itertools.combinations_with_replacement(fibres(7), k)
        for r in range(-2, 3)
    ]


def sweep_s11() -> list[SeifertManifold]:
    return [
        SeifertManifold(True, 0, r, list(invs))
        for invs in itertools.combinations_with_replacement(fibres(11), 3)
        for r in range(-2, 3)
    ]


SWEEPS = {"S5": sweep_s5, "N7": sweep_n7, "S7": sweep_s7, "S11": sweep_s11}
TESTED = ("S5", "N7")  # the sweeps the tests check; --check runs them all


def census(spaces) -> tuple[dict, list[str]]:
    """The census of one sweep, and its faults: each space or mirror
    reported CONFLICT, with its reason, and each space whose mirror got
    another status."""
    counts: Counter = Counter()
    unknown = []
    found = []
    for y in spaces:
        report = full_report(y, budget=BUDGET)
        counts[report.status, report.reason] += 1
        if report.status == "UNKNOWN":
            unknown.append(y.describe())
        mirrored = full_report(mirror(y), budget=BUDGET)
        found += [
            f"{r.manifold.describe()}: CONFLICT, {r.reason}"
            for r in (report, mirrored)
            if r.status == "CONFLICT"
        ]
        if mirrored.status != report.status:
            found.append(f"{y.describe()}: {report.status} vs mirror {mirrored.status}")
    table: dict = {}
    for (status, reason), n in sorted(counts.items()):
        table.setdefault(status, {})[reason] = n
    return {"spaces": len(spaces), "counts": table, "unknown": unknown}, found


def record() -> str:
    out = {name: census(sweep())[0] for name, sweep in SWEEPS.items()}
    return json.dumps(out, indent=1) + "\n"


def faults(names) -> list[str]:
    """How the census of each named sweep differs from the pinned one,
    each CONFLICT line of the sweep with its input, and its mirror
    faults."""
    pinned = json.loads(CENSUS.read_text())
    out = [] if list(pinned) == list(SWEEPS) else [f"pinned sweeps {list(pinned)}"]
    for name in names:
        table, found = census(SWEEPS[name]())
        out += [f"{name}: {fault}" for fault in found]
        if table != pinned.get(name):
            out.append(f"{name}: census differs from the pinned one")
    return out


def test_census_sweeps_are_sized():
    sizes = {name: len(sweep()) for name, sweep in SWEEPS.items()}
    assert sizes == {"S5": 825, "N7": 2394, "S7": 29070, "S11": 61705}


def test_faults_name_each_conflict_with_its_input(monkeypatch):
    """A CONFLICT line is named with its input and reason, on either
    orientation, and not only as a count that differs."""
    y = sweep_s5()[0]
    mirrored = mirror(y).describe()

    def conflicting(m, budget):
        report = reported(m, budget=budget)
        if m.describe() != mirrored:
            return report
        return replace(report, status="CONFLICT", reason="catalog:a contradicts obstruction:b")

    reported = full_report
    monkeypatch.setitem(globals(), "full_report", conflicting)
    _, found = census([y])
    assert found[0] == f"{mirrored}: CONFLICT, catalog:a contradicts obstruction:b"
    assert found[1].startswith(f"{y.describe()}: ") and found[1].endswith(" vs mirror CONFLICT")


def test_census_is_reproduced():
    assert faults(TESTED) == []


# per sweep with pretzel forms: the largest strand |a_i| tried (no larger
# one gives a fibre of the sweep), and the spaces with a form and their
# covers, as ``pretzel_form_faults`` counts them
PRETZEL_FORMS = {"S5": (5, 218, 560), "S7": (7, 1622, 3514), "S11": (11, 3265, 7260)}


def pretzel_form_faults(name: str) -> list[str]:
    """Every space of the sweep with a pretzel form must get the status of
    each pretzel cover presenting it or its mirror.  The forms are found
    by brute force: every 3- and 4-strand multiset of strands in
    [-a, a], +-1 included, keyed by ``_strand_key`` and looked up by the
    space's Seifert keys; each cover is reported once.  Returns each
    space whose covers disagree, and a line if the counts of spaces and
    covers differ from ``PRETZEL_FORMS``."""
    bound, *pinned = PRETZEL_FORMS[name]
    forms = defaultdict(list)
    strands = [x for x in range(-bound, bound + 1) if x]
    for k in (3, 4):
        for s in itertools.combinations_with_replacement(strands, k):
            forms[_strand_key(list(s))].append(s)
    covered = {}
    for y in SWEEPS[name]():
        found = [s for key in ManifoldContext(y).seifert_keys for s in forms[key]]
        if found:
            covered[y] = found
    statuses = {
        s: full_report(PretzelCover(s), budget=BUDGET).status
        for s in set().union(*covered.values())
    }
    out = []
    for y, found in covered.items():
        status = full_report(y, budget=BUDGET).status
        if {statuses[s] for s in found} != {status}:
            out.append(f"{y.describe()}: {status} vs its pretzel covers {found}")
    counts = [len(covered), sum(map(len, covered.values()))]
    if counts != pinned:
        out.append(f"{name}: {counts[0]} spaces with {counts[1]} pretzel covers, pinned {pinned}")
    return out


def test_pretzel_forms_get_the_census_status():
    """S5 here; ``--check`` also runs S7 and S11."""
    assert pretzel_form_faults("S5") == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        found = faults(SWEEPS) + [f for name in PRETZEL_FORMS for f in pretzel_form_faults(name)]
        print(
            "\n".join(found)
            or f"census of {', '.join(SWEEPS)} reproduced; pretzel forms of "
            f"{', '.join(PRETZEL_FORMS)} agree"
        )
        sys.exit(1 if found else 0)
    CENSUS.parent.mkdir(exist_ok=True)
    CENSUS.write_text(record())
