"""Golden corpora: the ``--json --certificates`` report of every input in
``golden/corpus.jsonl``, and the default ``--json`` report of every lens
sum in ``golden/lens_default.jsonl``, must come out byte for byte as
recorded.

Each line of a corpus holds one input, its exit code and its report,
as compact JSON.  To record both corpora again from the current code::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

from s4embed.classify import ManifoldContext, full_report
from s4embed.cli import main, parse_manifold

CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"
DEFAULT_CORPUS = Path(__file__).parent / "golden" / "lens_default.jsonl"

NAMED_PRETZELS = [
    (2, -2, 3, -3), (4, -4, 2, -2), (1, -4, -4, -4), (4, -4, 4, -4),
    (3, -2, 2, -2), (1, -2, 2, -2), (1, -2, -2, -2), (5, -4, 3, 2),
    (1, 2, 2, 2), (2, -2, 2, -2), (2, -2, 4, -4), (5, 2, 2, 2),
    (4, -4, 6, -6), (3, -5, -8), (5, -7, -18),
]

LENS_SUMS = [
    "lens(3,1)", "lens(5,2)", "lens(3,1)+lens(3,2)", "lens(2,1)+lens(2,1)",
    "lens(5,1)+lens(5,1)", "lens(5,2)+lens(5,2)", "lens(7,2)+lens(7,5)",
    "lens(7,4)+lens(7,5)", "lens(8,3)+lens(8,5)", "lens(8,3)+lens(8,3)",
    "lens(4,1)+lens(4,3)", "lens(9,2)+lens(9,7)", "lens(9,2)+lens(9,2)",
    "lens(25,7)+lens(25,18)", "lens(3,1)+lens(3,1)+lens(3,2)+lens(3,2)",
    "lens(3,1)+lens(5,2)+lens(3,2)+lens(5,3)",
    # many usable column subgroups, so many pairs are tested
    "lens(8,3)+lens(8,3)+lens(8,5)+lens(8,5)",
    "lens(9,2)+lens(9,2)+lens(9,7)+lens(9,7)",
]

SEIFERT = [
    # orientable base, e = 0
    "seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))",
    "seifert(S2; 0; (2,1),(6,-1),(6,-1),(6,-1))",
    "seifert(S2; 0; (4,1),(4,-1),(6,1),(6,-1))",
    "seifert(S2; 1; (3,1),(3,1),(3,1))",
    "seifert(S2; 0; (3,1),(3,-1),(2,1),(2,-1))",
    "seifert(O(1); 0; (3,1),(3,-1))",
    # orientable base, e != 0
    "seifert(S2; 0; (4,1),(4,1),(12,-7))",
    "seifert(S2; 1; (4,1),(4,1),(12,5))",
    "seifert(S2; 0; (2,1),(3,1),(5,1))",
    "seifert(S2; -1; (2,1),(3,1),(5,1))",
    "seifert(S2; 0; (3,1),(3,1),(3,-1))",
    "seifert(O(1); 1; (2,1),(3,1),(5,1))",
    # non-orientable base
    "seifert(N(1); 0; (3,1),(2,1))",
    "seifert(N(1); 0; (3,1),(3,-1))",
    "seifert(N(2); 0; (3,1),(3,-2))",
    "seifert(N(1); 0; (4,1),(4,1))",
    "seifert(N(1); 0; (4,1),(6,1))",
    "seifert(N(1); 1; )",
    "seifert(N(1); 0; (5,2),(5,-3))",
    # base S^2 with at most two fibres: lens spaces, S^3 or S^1 x S^2
    "seifert(S2; 0; )",
    "seifert(S2; 1; )",
    "seifert(S2; 2; )",
    "seifert(S2; 0; (3,1))",
    "seifert(S2; 0; (5,2))",
    "seifert(S2; 0; (9,2))",
    "seifert(S2; -1; (2,-1),(3,-1))",
    "seifert(S2; 0; (4,1),(4,-1))",
    "seifert(S2; 0; (5,1),(5,-1))",
    "seifert(S2; 1; (3,1),(3,1))",
    "seifert(S2; 0; (2,1),(2,1))",
]


def corpus_inputs() -> list[str]:
    values = [a for a in range(-4, 5) if a]
    pretzels = list(itertools.combinations_with_replacement(values, 3)) + NAMED_PRETZELS
    return [f"pretzel({','.join(map(str, s))})" for s in pretzels] + LENS_SUMS + SEIFERT


def record(expr: str, *flags: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([expr, "--json", *flags])
    entry = {"expr": expr, "exit": code, "report": json.loads(out.getvalue())}
    return json.dumps(entry, separators=(",", ":"))


def changed_lines(corpus: Path, *flags: str) -> list[str]:
    """The inputs of ``corpus`` whose report no longer comes out as recorded."""
    lines = corpus.read_text().splitlines()
    exprs = [json.loads(line)["expr"] for line in lines]
    return [expr for expr, line in zip(exprs, lines) if record(expr, *flags) != line]


def test_golden_corpus_reproduced():
    assert len(CORPUS.read_text().splitlines()) >= 150
    assert changed_lines(CORPUS, "--certificates") == []


def test_default_lens_reports_reproduced():
    assert len(DEFAULT_CORPUS.read_text().splitlines()) == len(LENS_SUMS)
    assert changed_lines(DEFAULT_CORPUS) == []


def test_a_default_report_stops_at_its_first_refutation():
    """Over every input of both corpora, the default report has the status
    and reason of the report that runs every row, and its (name, verdict)
    rows are a prefix of that report's, ending at the first obstructed
    row if there is one."""
    lines = CORPUS.read_text().splitlines() + DEFAULT_CORPUS.read_text().splitlines()
    exprs = {json.loads(line)["expr"] for line in lines}
    assert len(exprs) == len(corpus_inputs())
    stopped = 0
    for expr in exprs:
        m = parse_manifold(expr)
        short, every = full_report(m), full_report(m, certificates=True)
        assert (short.status, short.reason) == (every.status, every.reason), expr
        rows = [(name, r.verdict) for name, r in short.results.items()]
        all_rows = [(name, r.verdict) for name, r in every.results.items()]
        assert rows == all_rows[: len(rows)], expr
        refuted = [i for i, (_, verdict) in enumerate(all_rows) if verdict == "obstructed"]
        if refuted:
            assert len(rows) == refuted[0] + 1, expr
            checks = {name for name, _ in ManifoldContext(m).table.checks}
            stopped += len(rows) < sum(name in checks for name, _ in all_rows)
    # the inputs whose default report leaves out a row that is not a
    # certificate
    assert stopped == 66


def subset_rows(node):
    """Every ``subset_rows`` list in a certificate."""
    if isinstance(node, dict) and "subset_rows" in node:
        yield node["subset_rows"]
    elif isinstance(node, list):
        for item in node:
            yield from subset_rows(item)


def test_golden_certificates_factor_their_own_sides_form():
    """Row i of a subset certificate is vertex i of the plumbing its row
    searched: the mirror rows search the '-' side, double_subset the
    definite side and the other searches the '+' side.  Every recorded
    subset A satisfies A A^t = -Q there."""
    # imported here, so that recording the corpora needs no pytest
    from test_intlinalg import dense
    from test_lattice import verify_factorization

    checked = 0
    for line in CORPUS.read_text().splitlines():
        entry = json.loads(line)
        ctx = ManifoldContext(parse_manifold(entry["expr"]))
        for result in entry["report"]["obstructions"]:
            name = result["name"]
            if name.endswith("_mirror"):
                side = "-"
            else:
                side = ctx.definite_side if name == "double_subset" else "+"
            for rows in subset_rows(result.get("certificate", [])):
                assert verify_factorization(rows, dense(ctx.tree(side))), (entry["expr"], name)
                checked += 1
    assert checked == 92


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("".join(record(e, "--certificates") + "\n" for e in corpus_inputs()))
    DEFAULT_CORPUS.write_text("".join(record(e) + "\n" for e in LENS_SUMS))
