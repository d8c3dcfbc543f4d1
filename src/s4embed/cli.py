"""Command-line front end: parse a manifold expression, run the
obstruction report, emit text or byte-stable JSON.  This module alone
lays out a report: ``full_report`` returns values, and the layouts of
results, certificates and invariants are here, with ``PRINTABLE``, the
bound below which every printed integer has at most 4,300 digits.
``report_to_json`` is the one home of the ``--json`` layout, which it
writes in one pass from the report's fields.  ``_indented`` remains for
the certificate payloads alone, since their nesting differs by check.

Grammar, where every integer is 1 to 4,300 decimal digits after an
optional sign and whitespace may appear between any two tokens::

    expr     := lens_sum | seifert | pretzel
    lens_sum := lens(p,q) { '+' lens(p,q) }
    seifert  := seifert(BASE ; r [; [(a1,b1), (a2,b2), ...]])
    BASE     := S2 | O(g) | N(k)
    pretzel  := pretzel(a,b,c[,d])

The fibre list is optional: ``seifert(S2;0)`` and ``seifert(S2; 0; )``
are the same space.  An input is refused where the report could not
print b_1, the rank of H_1(Y; Z/2) or the torsion factors in 4,300
digits; a larger spin count 2^m prints as the string "2^m".  Every
rejected expression raises ``ParseError``, which names a position in the
text; the CLI prints it and exits 64.

Arguments (``_read_argv``): one expression and the options of
``_OPTIONS``, each by its full name, in any order.  ``--budget N`` and
``--obstruction NAME`` take the next word as their value, whatever it
is, or the text after ``=``; N is read by ``int()``, and NAME is one of
``CHECK_NAMES``.  ``-h`` or ``--help`` prints the help on stdout and
exits 0.  Any other word that starts with ``-`` (an abbreviation such
as ``--cert``, a bare ``--``, a negative number), a second expression,
a value for a flag, a missing or bad value is a usage error: the usage
line and ``s4embed: error: <message>`` on stderr, exit 64.  Words are
read in order, so an option's value error, or help, ends the reading
where it stands; an unknown word is reported once all are read.

``--obstruction NAME`` (repeatable) runs only the named checks; the
status is merged from their results alone.  A name that the input's
class has no row for, or whose row returns no result, is a usage error:
``full_report``, where both rules live, raises ``RowError``, and its one
stderr line names the rows the class has, or the idle row.

Exit codes: 0 embeds, 1 obstructed, 2 unknown, 64 parse/usage error,
70 internal error.  Code 70 means either a conflict (status CONFLICT: a
catalog hit contradicting a completed obstruction) or an exception
other than ``ParseError`` raised while parsing, building the report or
its output (status ERROR, printed as one line: the JSON object
{"input", "status", "reason"} with ``--json``, whose "input" is the
canonical form, or the text as given where no manifold was parsed,
else ``error: <reason>`` on stderr, the reason reading
``internal:<Type>: <message>``, built once the failed report's frames
are freed, so that a MemoryError prints it too).  The
output is built whole before any of it is printed, so a fault while
rendering, such as an integer past the interpreter's digit limit,
prints that one line and nothing else.  Neither should ever happen, and
both are surfaced loudly.  A reader that closes stdout early, as
``head -1`` does, ends the output there, with nothing on stderr and the
status's own code.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quoted
from types import SimpleNamespace

from .classify import CHECK_NAMES, DEFAULT_BUDGET, ObstructionReport, RowError, full_report
from .intlinalg import Subgroup
from .lattice import LatticeSubset
from .manifolds import LensSum, Manifold, PretzelCover, SeifertManifold, torsion_order
from .obstructions import PRINTED_ROWS

# the report's integers are below this, so each prints in at most 4,300
# digits, int()'s default limit
PRINTABLE = 10**4300


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# every token may follow whitespace; the group is None where it is absent
_TOKENS = {
    token: (re.compile(rf"\s*({pattern})?").match, message)
    for token, pattern, message in (
        # at most int()'s default 4,300 digits, whatever the interpreter's
        # limit: a longer literal is refused by the next-digit check below
        ("integer", r"[+-]?\d{1,4300}", "expected an integer"),
        ("name", r"\w+", "expected a name"),
        ("end", r"\Z", "trailing input"),
        *((p, re.escape(p), f"expected {p!r}") for p in "(),;+"),
    )
}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def take(self, token: str, optional: bool = False):
        """The next token, as an int for ``integer``, if it is ``token``;
        else None if ``optional``, or a ParseError at the next non-space."""
        match, message = _TOKENS[token]
        found = match(self.text, self.pos)
        value = found[1]
        if value is None:
            if optional:
                return None
            raise ParseError(message, found.end())
        self.pos = end = found.end()
        if token != "integer":
            return value
        # a digit that int() does not read, such as '²', or a 4,301st digit
        # spoils the literal
        if not self.text[end : end + 1].isdigit():
            try:
                return int(value)
            except ValueError:  # past a lowered sys.get_int_max_str_digits()
                pass
        raise ParseError("invalid integer literal", found.start(1))


def parse_manifold(text: str) -> Manifold:
    """Parse the manifold DSL; the result is canonicalised on
    construction, so parse -> describe -> parse is the identity.  A
    constructor's error is reported at the start of its body."""
    s = _Scanner(text)
    summands: list[tuple[int, int]] = []
    head = 0  # where the term starts: 0, or just past its '+'
    while True:
        kind = s.take("name")
        if summands and kind != "lens":
            raise ParseError("only lens(...) terms can be summed", head)
        if kind not in ("lens", "seifert", "pretzel"):
            raise ParseError(f"unknown manifold kind {kind!r}", head)
        s.take("(")
        start = s.pos
        if kind == "lens":
            p = s.take("integer")
            s.take(",")
            make, args = LensSum, ([(p, s.take("integer"))],)
        elif kind == "pretzel":
            strands = [s.take("integer")]
            while s.take(",", optional=True):
                strands.append(s.take("integer"))
            make, args = PretzelCover, (strands,)
        else:
            base, genus = s.take("name"), 0
            if base not in ("S2", "O", "N"):
                raise ParseError("base must be S2, O(g) or N(k)", start)
            if base != "S2":
                s.take("(")
                genus = s.take("integer")
                s.take(")")
            s.take(";")
            r, pairs = s.take("integer"), []
            more = s.take(";", optional=True) and s.take("(", optional=True)
            while more:
                a = s.take("integer")
                s.take(",")
                pairs.append((a, s.take("integer")))
                s.take(")")
                more = s.take(",", optional=True) and s.take("(")
            # the report prints b_1 and m, the rank of H_1(Y; Z/2): b_1 is at
            # most 2g + 1 over O(g) and k over N(k), and m at most b_1 + n + 2
            # for n fibres
            if (genus if base == "N" else 2 * genus + 1) + len(pairs) + 2 >= PRINTABLE:
                raise ParseError("base genus too large to print H_1 in 4,300 digits", start)
            make, args = SeifertManifold, (base != "N", genus, r, pairs)
        s.take(")")
        try:
            m = make(*args)
        except ValueError as exc:
            raise ParseError(str(exc), start) from None
        if kind != "lens":
            break
        summands += m.summands
        if not s.take("+", optional=True):
            m = LensSum(summands)
            break
        head = s.pos
    s.take("end")
    # the report prints the order of the torsion of H_1 and its factors
    if torsion_order(m) >= PRINTABLE:
        where = 0 if kind == "lens" else start
        raise ParseError("torsion of H_1 too large to print in 4,300 digits", where)
    return m


def certificate_json(cert):
    if isinstance(cert, LatticeSubset):
        return {"subset_rows": [list(r) for r in cert.rows]}
    if isinstance(cert, Subgroup):
        return {"subgroup_factors": list(cert.factors), "order": cert.order}
    if isinstance(cert, tuple):
        return [certificate_json(c) for c in cert]
    return cert  # a dict, already JSON


def invariants_json(report: ObstructionReport) -> dict:
    """The report's invariants as printed.  spin_count = |H^1(Y; Z/2)| =
    2^m is an integer while it is below PRINTABLE, that is while m is
    below PRINTABLE's bit length, 14,285, as PRINTABLE is no power of 2;
    past that it is the string "2^m", and 2^m is never built."""
    m = report.z2_rank
    return {
        "b1": report.b1,
        "torsion_factors": list(report.torsion_factors),
        "euler": None if report.euler is None else str(report.euler),
        "spin_count": 2**m if m < PRINTABLE.bit_length() else f"2^{m}",
    }


USAGE_ERROR = 64
INTERNAL_ERROR = 70
EXIT_CODES = {"EMBEDS": 0, "OBSTRUCTED": 1, "UNKNOWN": 2, "CONFLICT": INTERNAL_ERROR}


# the default budget as 10^k, or in full where it is no power of ten
_ZEROS = len(str(DEFAULT_BUDGET)) - 1
_BUDGET = f"10^{_ZEROS}" if DEFAULT_BUDGET == 10**_ZEROS else DEFAULT_BUDGET

# name: (metavar, help); an option with no metavar is a flag
_OPTIONS = {
    "--json": (None, "emit a JSON report"),
    "--certificates": (
        None,
        "run every check, the rows that only certify too, and print certificates.  Where "
        "the deciding rows pass, the certificate rows are built with no search; past "
        f"{PRINTED_ROWS} rows a certificate row is summarised, or not searched",
    ),
    "--budget": ("BUDGET", f"search-node budget per obstruction (default {_BUDGET})"),
    "--obstruction": (
        "NAME",
        "run only the named checks (repeatable): the others do not run, and a certificate "
        "search runs when named.  A name that is unknown, not a row of the input's class, "
        f"or whose row returns no result is a usage error.  Names: {', '.join(CHECK_NAMES)}",
    ),
    "--quiet": (None, "suppress text output"),
}
_USAGE = (
    "usage: s4embed [-h] [--json] [--certificates] [--budget BUDGET] [--obstruction NAME] "
    "[--quiet] [expr]"
)
_ABOUT = (
    "Decide, with certificates, whether a lens-space sum, Seifert manifold or pretzel-link "
    "double branched cover embeds smoothly in the 4-sphere."
)


def _usage_error(message: str):
    print(f"{_USAGE}\ns4embed: error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The six values ``main`` reads, by the argument rules of the module
    docstring; --help and a usage error raise SystemExit with their code."""
    args = SimpleNamespace(expr=None, json=False, certificates=False, quiet=False)
    args.budget, args.obstruction, unknown, words = DEFAULT_BUDGET, None, [], iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            rows = [("-h, --help", (None, "show this help message and exit")), *_OPTIONS.items()]
            print(_USAGE, _ABOUT, "positional arguments:", sep="\n\n")
            print(f"  {'expr':<20}manifold expression\n\noptions:")
            print(*(f"  {f'{n} {m}' if m else n:<20}{text}" for n, (m, text) in rows), sep="\n")
            raise SystemExit(0)
        name, given, value = word.partition("=")
        if name not in _OPTIONS:  # a positional, or an unknown option
            if word.startswith("-") or args.expr is not None:
                unknown.append(word)
            else:
                args.expr = word
        elif _OPTIONS[name][0] is None:
            if given:
                _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            setattr(args, name[2:], True)
        elif not given and (value := next(words, None)) is None:
            _usage_error(f"argument {name}: expected one argument")
        elif name == "--obstruction":
            if value not in CHECK_NAMES:
                _usage_error(f"argument {name}: invalid choice: {value!r}")
            args.obstruction = [*(args.obstruction or ()), value]
        else:
            try:
                args.budget = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


# the writers of the scalar values a dict holds, as json.dumps writes them
_INLINE = {str: _quoted, int: repr, type(None): lambda v: "null"}


def _indented(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, without its slow pure-Python encoder.
    A list of ints alone, such as a certificate row, is printed in one step, and
    a dict's str, int and None values with no recursive call (``_INLINE``)."""
    kind, inner = type(x), pad + "  "
    if kind is dict and x:
        items = [
            f"{inner}{_quoted(k)}: {w(v) if (w := _INLINE.get(type(v))) else _indented(v, inner)}"
            for k, v in x.items()
        ]
        return "{" + ",".join(items) + pad + "}"
    if kind in (list, tuple) and x:
        flat = all(type(v) is int for v in x)
        items = map(repr, x) if flat else [_indented(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _INLINE.get(kind, json.dumps)(x)


def report_to_json(report: ObstructionReport, with_certificates: bool) -> str:
    """The ``--json`` text of the report, written in one pass from its
    fields: ``json.dumps(obj, indent=2)`` byte for byte, where obj is::

        {"input": FORM, "canonical_form": FORM,
         "invariants": {"b1": INT, "torsion_factors": [INT, ...],
                        "euler": null | "p/q", "spin_count": INT | "2^m"},
         "obstructions": [ROW, ...], "status": STR, "reason": STR}
        ROW := {"name": STR, "verdict": STR [, "notes": STR]
                [, "certificate": [CERT, ...]]}

    in that key order.  Each item of a nonempty list or object takes a
    line of its own, two spaces deeper than its bracket; an empty list
    is ``[]``.  FORM is the canonical form, so "input" and
    "canonical_form" are equal.  The invariants are ``invariants_json``'s,
    the one home of the spin-count rule.  A row has "notes" where its
    notes are nonempty, and "certificate" where certificates are asked
    for and it has some: each CERT is ``certificate_json``'s, and these
    data of open shape alone go through ``_indented``."""
    pad = "\n      "  # the indent of a row's keys and of the torsion factors
    form = _quoted(report.manifold.describe())
    inv = invariants_json(report)
    rows = []
    for name, r in report.results.items():
        row = f'{{{pad}"name": {_quoted(name)},{pad}"verdict": {_quoted(r.verdict)}'
        if r.notes:
            row += f',{pad}"notes": {_quoted(r.notes)}'
        if with_certificates and r.certificates:
            certificates = [certificate_json(c) for c in r.certificates]
            row += f',{pad}"certificate": {_indented(certificates, pad)}'
        rows.append(row + "\n    }")
    factors = inv["torsion_factors"]
    torsion = "[" + pad + f",{pad}".join(map(repr, factors)) + "\n    ]" if factors else "[]"
    obstructions = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    euler, spins = (_INLINE[type(v)](v) for v in (inv["euler"], inv["spin_count"]))
    return (
        f'{{\n  "input": {form},\n  "canonical_form": {form},\n  "invariants": {{'
        f'\n    "b1": {inv["b1"]!r},\n    "torsion_factors": {torsion},'
        f'\n    "euler": {euler},\n    "spin_count": {spins}\n  }},'
        f'\n  "obstructions": {obstructions},'
        f'\n  "status": {_quoted(report.status)},\n  "reason": {_quoted(report.reason)}\n}}'
    )


def _text_report(report: ObstructionReport, text: str, with_certificates: bool) -> str:
    inv = invariants_json(report)
    lines = [
        f"input:      {text.strip()}",
        f"canonical:  {report.manifold.describe()}",
        f"invariants: b1={inv['b1']} torsion={inv['torsion_factors']} "
        f"euler={inv['euler']} spin={inv['spin_count']}",
    ]
    for name, r in report.results.items():
        lines.append(f"  [{r.verdict:>12}] {name}" + (f"  ({r.notes})" if r.notes else ""))
        if with_certificates:
            lines += [f"        {json.dumps(certificate_json(cert))}" for cert in r.certificates]
    lines.append(f"status:     {report.status}  ({report.reason})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)

    text = args.expr
    if not text:
        print("error: no manifold given", file=sys.stderr)
        return USAGE_ERROR
    reason = manifold = None
    try:
        manifold = parse_manifold(text)
        report = full_report(
            manifold, budget=args.budget, only=args.obstruction, certificates=args.certificates
        )
        if args.json:
            out = report_to_json(report, args.certificates)
        else:
            out = _text_report(report, text, args.certificates)
        if args.json or not args.quiet:
            print(out, flush=True)
    except (ParseError, RowError) as exc:  # parse_manifold raises ParseError alone
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed the pipe: the rest of the output, flushed again
        # at exit, goes to devnull, and the status keeps its code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # a fault in the program, reported below as one line
        # the line is built once the clause has ended: until then the
        # traceback keeps the failed report's frames alive, and after a
        # MemoryError they hold nearly all the memory the line would need
        message = " ".join(str(exc).split())
        reason = f"internal:{type(exc).__name__}: {message}"
    if reason is None:
        return EXIT_CODES.get(report.status, INTERNAL_ERROR)
    if args.json:
        form = text if manifold is None else manifold.describe()
        print(json.dumps({"input": form, "status": "ERROR", "reason": reason}))
    else:
        print(f"error: {reason}", file=sys.stderr)
    return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
