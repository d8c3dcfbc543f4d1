"""Command-line front end: parse a manifold expression, run the
obstruction report, emit text or byte-stable JSON.

Grammar::

    expr     := lens_sum | seifert | pretzel
    lens_sum := lens(p,q) { '+' lens(p,q) }
    seifert  := seifert(BASE ; r ; (a1,b1), (a2,b2), ...)
    BASE     := S2 | O(g) | N(k)
    pretzel  := pretzel(a,b,c[,d])

``--certificates`` prints each check's certificates, in text as one line
of the JSON that ``--json`` carries for each.  It also runs the
checks that only certify, after the others: a lens sum is decided by
torsion_square and lens_mirror_pairing, and a Seifert space with e = 0
over an orientable base by its rows up to mubar_vanishing.  Their
searches (double_subset and double_subset_mirror; semidefinite_subset
and semidefinite_subset_mirror) run only with ``--certificates`` or when
``--obstruction`` names one of them.  Status, reason and exit code are
the same either way.  A passing search stops at, and cites, the first
witness it meets.

``--obstruction NAME`` (repeatable) runs only the named checks; the
status is merged from their results alone.  A name that the input's
class has no row for is a usage error, and its one stderr line names the
rows the class has: a single lens space, given as a Seifert space or a
pretzel cover, has torsion_square alone (its torsion is cyclic, so never
G + G unless trivial), and lens_mirror_pairing names a row of lens sums
only.  A named row that returns no result, as mubar_vanishing does with
no pretzel form, is a usage error too, and its stderr line names it.

Exit codes: 0 embeds, 1 obstructed, 2 unknown, 64 parse/usage error,
70 internal error.  Code 70 means either a conflict (status CONFLICT: a
catalog hit contradicting a completed obstruction) or an exception
raised while building the report (status ERROR, printed as one line:
the JSON object {"input", "status", "reason"} with ``--json``, else
``error: <reason>`` on stderr, the reason reading
``internal:<Type>: <message>``).  Neither should ever happen, and both
are surfaced loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quoted

from .classify import CHECK_NAMES, DEFAULT_BUDGET, ManifoldContext, ObstructionReport, full_report
from .manifolds import LensSum, Manifold, PretzelCover, SeifertManifold
from .obstructions import certificate_json


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start : self.pos].lstrip("+-"):
            self.pos = start
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def int_list(self) -> list[int]:
        out = [self.integer()]
        while self.peek() == ",":
            self.expect(",")
            out.append(self.integer())
        return out

    def pair_list(self) -> list[tuple[int, int]]:
        pairs = []
        while True:
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(")")
            pairs.append((a, b))
            if self.peek() != ",":
                break
            self.expect(",")
        return pairs

    def manifold(self) -> Manifold:
        kind_pos = self.pos
        kind = self.word()
        if kind == "lens":
            summands = [self.lens_body()]
            while self.peek() == "+":
                self.expect("+")
                head_pos = self.pos
                head = self.word()
                if head != "lens":
                    self.pos = head_pos
                    self.error("only lens(...) terms can be summed")
                summands.append(self.lens_body())
            return LensSum(summands)
        if kind == "seifert":
            return self.seifert_body()
        if kind == "pretzel":
            return self.pretzel_body()
        self.pos = kind_pos
        self.error(f"unknown manifold kind {kind!r}")

    def lens_body(self) -> tuple[int, int]:
        self.expect("(")
        p_pos = self.pos
        p = self.integer()
        self.expect(",")
        q = self.integer()
        self.expect(")")
        try:
            LensSum([(p, q)])
        except ValueError as exc:
            self.pos = p_pos
            self.error(str(exc))
        return (p, q)

    def seifert_body(self) -> SeifertManifold:
        self.expect("(")
        base_pos = self.pos
        base = self.word()
        if base == "S2":
            orientable, genus = True, 0
        elif base in ("O", "N"):
            self.expect("(")
            genus = self.integer()
            self.expect(")")
            orientable = base == "O"
        else:
            self.pos = base_pos
            self.error("base must be S2, O(g) or N(k)")
        self.expect(";")
        r = self.integer()
        pairs: list[tuple[int, int]] = []
        if self.peek() == ";":
            self.expect(";")
            if self.peek() == "(":
                pairs = self.pair_list()
        self.expect(")")
        try:
            return SeifertManifold(orientable, genus, r, pairs)
        except ValueError as exc:
            self.pos = base_pos
            self.error(str(exc))

    def pretzel_body(self) -> PretzelCover:
        self.expect("(")
        first = self.pos
        strands = self.int_list()
        self.expect(")")
        try:
            return PretzelCover(strands)
        except ValueError as exc:
            self.pos = first
            self.error(str(exc))

    def parse(self) -> Manifold:
        m = self.manifold()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return m


def parse_manifold(text: str) -> Manifold:
    """Parse the manifold DSL; the result is canonicalised on
    construction, so parse -> describe -> parse is the identity."""
    return _Parser(text).parse()


def report_to_json(report: ObstructionReport, with_certificates: bool) -> dict:
    return {
        "input": report.manifold.describe(),
        "canonical_form": report.manifold.describe(),
        "invariants": report.invariants,
        "obstructions": [
            r.to_json(with_certificates) for r in report.results
        ],
        "status": report.status,
        "reason": report.reason,
    }


USAGE_ERROR = 64
INTERNAL_ERROR = 70
EXIT_CODES = {"EMBEDS": 0, "OBSTRUCTED": 1, "UNKNOWN": 2, "CONFLICT": INTERNAL_ERROR}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 64; argparse's own 2 would read as UNKNOWN."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


# built once per process; each parse_args call starts a fresh namespace
_ARGS = _ArgumentParser(
    prog="s4embed",
    description="Decide, with certificates, whether a lens-space sum, "
    "Seifert manifold or pretzel-link double branched cover embeds "
    "smoothly in the 4-sphere.",
)
_ARGS.add_argument("expr", nargs="?", help="manifold expression")
_ARGS.add_argument("--json", action="store_true", help="emit a JSON report")
_ARGS.add_argument(
    "--certificates",
    action="store_true",
    help="include certificates in output, running the searches that only "
    "certify (the double-subset checks of a lens sum, the semidefinite-subset "
    "checks of an e = 0 Seifert space over an orientable base); a passing "
    "search cites the first witness it meets",
)
_ARGS.add_argument(
    "--budget",
    type=int,
    default=DEFAULT_BUDGET,
    help="search-node budget per obstruction (default 10^7)",
)
_ARGS.add_argument(
    "--obstruction",
    action="append",
    default=None,
    choices=CHECK_NAMES,
    metavar="NAME",
    help="run only the named checks (repeatable): the others do not run, "
    "and a certificate search runs when named.  A name that is unknown, not a "
    "row of the input's class, or whose row returns no result is a usage error.  Names: "
    f"{', '.join(CHECK_NAMES)}",
)
_ARGS.add_argument("--quiet", action="store_true", help="suppress text output")


def _indented(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, without its slow pure-Python encoder.
    A list of ints alone, such as a certificate row, is printed in one step."""
    kind, inner = type(x), pad + "  "
    if kind is dict and x:
        items = [f"{inner}{_quoted(k)}: {_indented(v, inner)}" for k, v in x.items()]
        return "{" + ",".join(items) + pad + "}"
    if kind in (list, tuple) and x:
        flat = all(type(v) is int for v in x)
        items = map(repr, x) if flat else [_indented(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _quoted(x) if kind is str else repr(x) if kind is int else json.dumps(x)


def main(argv: list[str] | None = None) -> int:
    args = _ARGS.parse_args(argv)

    text = args.expr
    if not text:
        print("error: no manifold given", file=sys.stderr)
        return USAGE_ERROR
    try:
        manifold = parse_manifold(text)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.obstruction:
        rows = ManifoldContext(manifold).table.names
        missing = [name for name in args.obstruction if name not in rows]
        if missing:
            reason = f"{manifold.describe()} has no row {missing[0]}; its rows: {', '.join(rows)}"
            print(f"error: {reason}", file=sys.stderr)
            return USAGE_ERROR

    try:
        report = full_report(
            manifold, budget=args.budget, only=args.obstruction, certificates=args.certificates
        )
    except Exception as exc:  # a fault in the program, reported as one line
        message = " ".join(str(exc).split())
        reason = f"internal:{type(exc).__name__}: {message}"
        if args.json:
            error = {"input": manifold.describe(), "status": "ERROR", "reason": reason}
            print(json.dumps(error))
        else:
            print(f"error: {reason}", file=sys.stderr)
        return INTERNAL_ERROR
    ran = {r.name for r in report.results}
    if idle := [name for name in args.obstruction or () if name not in ran]:
        print(f"error: row {idle[0]} does not apply to {manifold.describe()}", file=sys.stderr)
        return USAGE_ERROR

    if args.json:
        payload = report_to_json(report, args.certificates)
        print(_indented(payload))
    elif not args.quiet:
        print(f"input:      {text.strip()}")
        print(f"canonical:  {report.manifold.describe()}")
        inv = report.invariants
        print(
            f"invariants: b1={inv['b1']} torsion={inv['torsion_factors']} "
            f"euler={inv['euler']} spin={inv['spin_count']}"
        )
        for r in report.results:
            line = f"  [{r.verdict:>12}] {r.name}"
            if r.notes:
                line += f"  ({r.notes})"
            print(line)
            if args.certificates and r.certificates:
                for cert in r.certificates:
                    print(f"        {json.dumps(certificate_json(cert))}")
        print(f"status:     {report.status}  ({report.reason})")
    return EXIT_CODES.get(report.status, INTERNAL_ERROR)


if __name__ == "__main__":
    sys.exit(main())
