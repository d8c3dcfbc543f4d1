import argparse
import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s4embed import classify, cli, intlinalg
from s4embed.classify import CHECK_NAMES, DEFAULT_BUDGET, CatalogEntry, full_report
from s4embed.cli import ParseError, main, parse_manifold
from s4embed.manifolds import LensSum, PretzelCover, SeifertManifold

SRC = Path(__file__).resolve().parent.parent / "src"


def exit_code(*argv: str) -> int:
    """The exit code of one in-process run: returned, or raised as
    SystemExit where the arguments ask for help or are a usage error."""
    try:
        return main([*argv, "--quiet"])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["lens(3,1)+lens(3,2)"], 0),
        (["lens(5,1)+lens(5,1)"], 1),
        (["pretzel(3,-5,-8)"], 2),
        (["lens(3,1)+lens(3,2)", "--bogus"], 64),
        (["lens(3,1)+lens(3,2)", "--seed", "1"], 64),
        (["lens(3,1)+lens(3,2)", "--budget", "many"], 64),
        (["lens(4,2)"], 64),
        ([], 64),
        # a misspelt check name is a usage error, not a report with no checks
        (["lens(5,1)+lens(5,1)", "--obstruction", "double_subst"], 64),
        (["lens(3,1)+lens(3,2)", "--obstruction", "double_subst"], 64),
        (["lens(3,1)+lens(3,2)", "--obstruction", "torsion_square", "--obstruction", "x"], 64),
        # a retired check: G + G torsion in torsion_square implies its rule
        (["pretzel(3,-5,-8)", "--obstruction", "spin_count_parity"], 64),
        # the expression is positional only
        (["lens(3,1)", "--manifold", "lens(5,1)"], 64),
        (["--manifold", "lens(3,1)"], 64),
    ],
)
def test_exit_codes(argv, code, capsys):
    assert exit_code(*argv) == code


@pytest.mark.parametrize(
    "text, message",
    [
        ("pretzel(3,-5,-8", "expected ')' at position 15"),
        ("seifert(S2; 0; (2,1),)", "expected '(' at position 21"),
        ("  torus(2,3)", "unknown manifold kind 'torus' at position 0"),
        ("  seifert(T2; 0; )", "base must be S2, O(g) or N(k) at position 10"),
        ("lens(3,1) + pretzel(3,-5,-8)", "only lens(...) terms can be summed at position 11"),
        ("lens(3,1) x", "trailing input at position 10"),
        ("lens(3, 1) + lens( 4,2)", "L(4,2) is not a lens space at position 18"),
    ],
)
def test_parse_error_names_its_position(text, message):
    """A missing token is reported at the next non-space; an unknown kind
    at the start of the text, a summand that is not a lens space just past
    its '+', and a base or a constructor's error just past the body's '('."""
    with pytest.raises(ParseError) as caught:
        parse_manifold(text)
    assert str(caught.value) == message
    assert caught.value.position == int(message.rsplit(" ", 1)[1])


@contextmanager
def int_digit_limit(digits: int):
    """Set the interpreter's integer digit limit, where it has one, for
    a block; 0 lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize(
    "text", ["lens(3\u00b2,1)", pytest.param("lens(" + "1" * 5000 + ",1)", id="5000-digit literal")]
)
def test_a_literal_int_cannot_read_is_a_parse_error(text):
    """str.isdigit takes '²', which int() does not read, and an integer
    has at most 4,300 digits, int()'s default limit; either literal is
    rejected where it starts, with the interpreter's limit or with none,
    and the CLI exits 64.  A literal of 4,300 digits still parses."""
    message = r"^invalid integer literal at position 5$"
    with pytest.raises(ParseError, match=message):
        parse_manifold(text)
    assert exit_code(text) == 64
    with int_digit_limit(0), pytest.raises(ParseError, match=message):
        parse_manifold(text)
    digits = "1" * 4300
    assert parse_manifold(f"lens({digits},1)") == LensSum([(int(digits), 1)])


spaces = st.text(" \t\n\u00a0\u3000", max_size=2)
summand = st.tuples(st.integers(2, 30), st.integers(-40, 40)).filter(lambda s: math.gcd(*s) == 1)
fibre = st.tuples(st.integers(2, 9), st.integers(-12, 12)).filter(lambda f: math.gcd(*f) == 1)


@st.composite
def expressions(draw):
    """(text, manifold): a valid expression of one of the three forms,
    with whitespace between tokens and integers spelt with signs and
    leading zeros."""

    def spell(value):
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        zeros = draw(st.sampled_from(["", "0"]))
        return f"{draw(spaces)}{sign}{zeros}{abs(value)}{draw(spaces)}"

    def body(values):
        return f"{draw(spaces)}({','.join(map(spell, values))}){draw(spaces)}"

    kind = draw(st.sampled_from(["lens", "seifert", "pretzel"]))
    if kind == "lens":
        summands = draw(st.lists(summand, min_size=1, max_size=3))
        text = "+".join(f"{draw(spaces)}lens{body(s)}" for s in summands)
        return text, LensSum(summands)
    if kind == "pretzel":
        strands = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=3, max_size=4))
        return f"{draw(spaces)}pretzel{body(strands)}", PretzelCover(strands)
    orientable, genus = draw(st.sampled_from([(True, 0), (True, 1), (False, 1), (False, 2)]))
    base = "S2" if orientable and not genus else ("O" if orientable else "N") + body([genus])
    r = draw(st.integers(-6, 6))
    fibres = draw(st.lists(fibre, max_size=4))
    tail = draw(st.sampled_from(["", ";", "; "]))  # no fibres, written three ways
    if fibres:
        tail = ";" + ",".join(map(body, fibres))
    text = f"seifert{draw(spaces)}({draw(spaces)}{base};{spell(r)}{tail})"
    return text, SeifertManifold(orientable, genus, r, fibres)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expressions())
def test_expressions_parse_to_their_manifold(expression):
    """A valid expression parses to the manifold built from its parts, and
    describe() is read back as the same manifold."""
    text, m = expression
    assert parse_manifold(text) == m
    assert parse_manifold(m.describe()) == m


@st.composite
def mutated(draw):
    """A valid expression with one to three characters inserted, deleted
    or replaced."""
    text = draw(expressions())[0]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("0719\u00b2\u0661(),;+- \u3000_aNOS"))
        edits = [text[:i] + c + text[i:], text[:i] + text[i + 1 :], text[:i] + c + text[i + 1 :]]
        text = draw(st.sampled_from(edits))
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(mutated(), st.text(max_size=30)))
def test_any_text_parses_or_is_a_parse_error(text):
    """Whatever the text, parsing returns a manifold or raises ParseError
    at a position inside it (or at its end)."""
    try:
        parse_manifold(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


@pytest.mark.parametrize(
    "expr, name, rows",
    [
        # a lens space given as a Seifert space is decided by its torsion
        ("seifert(S2; 0; (2,1),(2,1))", "lens_mirror_pairing", "torsion_square"),
        (
            "lens(5,1)+lens(5,1)",
            "mubar_vanishing",
            "torsion_square, lens_mirror_pairing, double_subset, double_subset_mirror",
        ),
    ],
)
def test_a_row_the_class_lacks_is_a_usage_error(expr, name, rows, capsys):
    """A name that the input's class has no row for exits 64, with one
    stderr line naming the rows the class has, though another name is
    one of them."""
    assert main([expr, "--obstruction", "torsion_square", "--obstruction", name]) == 64
    out, err = capsys.readouterr()
    canonical = parse_manifold(expr).describe()
    assert (out, err) == ("", f"error: {canonical} has no row {name}; its rows: {rows}\n")


@pytest.mark.parametrize("flags", [[], ["--json"], ["--certificates"]])
def test_a_row_that_does_not_apply_is_a_usage_error(flags, capsys):
    """A named row of the input's class that returns no result exits 64,
    with one stderr line naming the row: mubar_vanishing needs a pretzel
    form, and this space, which the default rows refute, has none."""
    expr = "seifert(S2;1;(2,1),(3,1),(5,1),(7,1),(11,1))"
    assert main([expr, "--quiet"]) == 1
    capsys.readouterr()
    argv = [expr, "--obstruction", "torsion_square", "--obstruction", "mubar_vanishing"]
    assert main([*argv, *flags]) == 64
    out, err = capsys.readouterr()
    canonical = parse_manifold(expr).describe()
    assert (out, err) == ("", f"error: row mubar_vanishing does not apply to {canonical}\n")


# an input whose check table reports each check name
CHECK_EXAMPLES = {
    "torsion_square": "lens(3,1)+lens(3,2)",
    "lens_mirror_pairing": "lens(3,1)+lens(3,2)",
    "double_subset": "lens(3,1)+lens(3,2)",
    "double_subset_mirror": "lens(3,1)+lens(3,2)",
    "complementary_pairs": "seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))",
    "semidefinite_subset": "seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))",
    "semidefinite_subset_mirror": "seifert(S2; 0; (3,1),(3,-1),(5,2),(5,-2))",
    "weak_complementary_pairs": "seifert(N(1); 0; (3,1),(3,-1))",
    "even_fibre_clause": "seifert(N(1); 0; (3,1),(3,-1))",
    "nonorientable_double_subset": "seifert(N(1); 0; (3,1),(3,-1))",
    "nonorientable_double_subset_mirror": "seifert(N(1); 0; (3,1),(3,-1))",
    "mubar_vanishing": "pretzel(3,-5,-8)",
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_name_is_accepted(name, capsys):
    expr = CHECK_EXAMPLES[name]
    assert main([expr, "--obstruction", name, "--json"]) in (0, 1, 2)
    report = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in report["obstructions"]] == [name]


def test_check_names_cover_every_reported_check():
    assert set(CHECK_EXAMPLES) == set(CHECK_NAMES)
    corpus = Path(__file__).parent / "golden" / "corpus.jsonl"
    reported = {
        r["name"]
        for line in corpus.read_text().splitlines()
        for r in json.loads(line)["report"]["obstructions"]
    }
    assert reported == set(CHECK_NAMES)


@pytest.mark.parametrize(
    "value",
    [
        {"a": [1, -2, [], {}], "b": {"c": None, "d": [True, False]}, "e": "\u00e9\n\"x\""},
        [[[]]],
        (10**40, 1.5),
        {},
        "plain",
        [3, -1, 0, 10**20],
        [1, True, None],
    ],
)
def test_indented_json_is_the_standard_library_bytes(value):
    """The report printer writes exactly what json.dumps(indent=2) writes."""
    assert cli._indented(value) == json.dumps(value, indent=2)


def result_json(name: str, r, with_certificates: bool) -> dict:
    """The reference layout of row ``name``'s result, as a dict: notes
    where it has them, and certificates where asked for and present."""
    out = {"name": name, "verdict": r.verdict}
    if r.notes:
        out["notes"] = r.notes
    if with_certificates and r.certificates:
        out["certificate"] = [cli.certificate_json(c) for c in r.certificates]
    return out


def reference_report_json(report, with_certificates: bool) -> dict:
    """The reference layout of a report, as a dict: ``--json`` prints
    ``json.dumps`` of it with indent 2."""
    form = report.manifold.describe()
    return {
        "input": form,
        "canonical_form": form,
        "invariants": cli.invariants_json(report),
        "obstructions": [
            result_json(name, r, with_certificates) for name, r in report.results.items()
        ],
        "status": report.status,
        "reason": report.reason,
    }


def test_indented_certificate_report_is_the_standard_library_bytes():
    """A --certificates report, with its subset rows (flat lists of ints,
    printed in one step), subgroup factors and mu-bar lists, comes out as
    json.dumps(indent=2) writes the reference dict."""
    report = full_report(parse_manifold("pretzel(3,-3,3)"), certificates=True)
    payload = reference_report_json(report, with_certificates=True)
    certificates = json.dumps([r.get("certificate") for r in payload["obstructions"]])
    assert all(key in certificates for key in ("subset_rows", "subgroup_factors", "mu_values"))
    assert cli.report_to_json(report, with_certificates=True) == json.dumps(payload, indent=2)


def dict_value_types(x) -> set:
    """The types of the values of every dict inside x."""
    if type(x) is dict:
        return set(map(type, x.values())).union(*map(dict_value_types, x.values()))
    if type(x) in (list, tuple):
        return set().union(*map(dict_value_types, x))
    return set()


def test_indented_seed1_benchmark_reports_are_the_standard_library_bytes(monkeypatch):
    """Every report of the seed-1 cases of the three benchmark workloads,
    with each case's own flags, comes out as json.dumps(indent=2) writes
    the reference dict: its str, int and None values, and the nested
    rows, certificates and invariants."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "s4bench"))
    import workloads

    kinds = set()
    for name, make in workloads.WORKLOADS.items():
        for case in make(1):
            args = cli._read_argv([case.expr, *case.flags])
            report = full_report(
                parse_manifold(args.expr),
                budget=args.budget,
                only=args.obstruction,
                certificates=args.certificates,
            )
            payload = reference_report_json(report, args.certificates)
            kinds |= dict_value_types(payload)
            text = cli.report_to_json(report, args.certificates)
            assert text == json.dumps(payload, indent=2), (name, case.expr)
    assert {str, int, type(None), dict, list} <= kinds, kinds


GENUS_4300 = "1" + "0" * 4299  # 10^4299: 2g + 1 has 4,300 digits

# (expr, b1, spin count) of spaces that embed whatever the base genus
LARGE_GENUS = [
    ("seifert(O(10000); 0; )", 20001, "2^20001"),
    ("seifert(O(1000000000000); 0; )", 2 * 10**12 + 1, f"2^{2 * 10**12 + 1}"),
    ("seifert(N(1000000000000); 0; )", 10**12 - 1, f"2^{10**12 + 1}"),
    (f"seifert(O({GENUS_4300}); 0; )", 2 * 10**4299 + 1, f"2^{2 * 10**4299 + 1}"),
    # m = b_1 + 2 either side of 14,284
    ("seifert(N(14283); 2; )", 14282, 2**14284),
    ("seifert(N(14284); 0; )", 14283, "2^14285"),
]


def test_the_writer_is_the_standard_library_bytes_of_the_reference(monkeypatch):
    """``report_to_json`` writes json.dumps(indent=2) of the reference
    dict byte for byte: on every seed-1 and seed-2 case of the three
    benchmark workloads with each case's own flags, on every input of
    both golden corpora with and without --certificates, on the large
    base genera (a spin count "2^m", and an integer at m = 14,284), on
    S^3 (no torsion factors) and on an --obstruction report.  The golden
    tests compare compact JSON, so this is the test of the indentation."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "s4bench"))
    import workloads
    from test_golden import corpus_inputs

    argvs = [
        [case.expr, *case.flags]
        for seed in (1, 2)
        for make in workloads.WORKLOADS.values()
        for case in make(seed)
    ]
    argvs += [[expr, *flags] for expr in corpus_inputs() for flags in ([], ["--certificates"])]
    argvs += [[expr] for expr, _, _ in LARGE_GENUS]
    argvs += [["seifert(S2;1;)"], ["pretzel(3,-3,3)", "--obstruction", "double_subset"]]
    printed = []
    for argv in argvs:
        args = cli._read_argv(argv)
        report = full_report(
            parse_manifold(args.expr),
            budget=args.budget,
            only=args.obstruction,
            certificates=args.certificates,
        )
        expected = json.dumps(reference_report_json(report, args.certificates), indent=2)
        printed.append(cli.report_to_json(report, args.certificates))
        assert printed[-1] == expected, argv
    shapes = ('"torsion_factors": []', '"euler": null', '"spin_count": "2^', '"notes"')
    shapes += ('"subset_rows"', '"subgroup_factors"', '"mu_values"')
    shapes += ('"obstructions": [\n    {\n      "name": "double_subset",\n',)
    assert [shape for shape in shapes if not any(shape in text for text in printed)] == []


def test_text_certificates_are_their_json(capsys):
    """Text mode prints each certificate as one line of the JSON that
    ``--json`` carries for it, so no field of a group or subgroup leaks
    into the output through its repr."""
    assert main(["lens(3,1)+lens(3,2)", "--certificates"]) == 0
    subsets = (
        '[{"subset_rows": [[0, 1, -1], [-1, -1, 0], [1, -1, -1]]}, '
        '{"subset_rows": [[0, 1, -1], [-1, -1, 0], [-1, 1, 1]]}]'
    )
    halves = '[{"subgroup_factors": [3], "order": 3}, {"subgroup_factors": [3], "order": 3}]'
    built = "cokernel splits as H + H, by a pair built from the mirror chains"
    assert capsys.readouterr().out.splitlines() == [
        "input:      lens(3,1)+lens(3,2)",
        "canonical:  lens(3,1) + lens(3,2)",
        "invariants: b1=0 torsion=[3, 3] euler=None spin=1",
        "  [        pass] torsion_square  (|torsion H_1| = 9 = 3^2)",
        "  [        pass] lens_mirror_pairing  (summands pair into mirrors)",
        f"  [        pass] double_subset  ({built})",
        f"        {subsets}",
        f"        {halves}",
        f"  [        pass] double_subset_mirror  ({built})",
        f"        {subsets}",
        f"        {halves}",
        "status:     EMBEDS  (catalog:mirror_lens_sum)",
    ]
    main(["lens(3,1)+lens(3,2)", "--certificates", "--json"])
    report = json.loads(capsys.readouterr().out)
    first = report["obstructions"][2]["certificate"]
    assert [json.dumps(c) for c in first] == [subsets, halves]


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# The argparse definition that cli._read_argv replaced, the oracle for its
# rules; abbreviations are off, as the loop takes no abbreviation.
REFERENCE = _ReferenceParser(prog="s4embed", allow_abbrev=False)
REFERENCE.add_argument("expr", nargs="?")
for name in ("--json", "--certificates", "--quiet"):
    REFERENCE.add_argument(name, action="store_true")
REFERENCE.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
REFERENCE.add_argument("--obstruction", action="append", choices=CHECK_NAMES, metavar="NAME")


def read(parse, argv: list[str]) -> tuple[dict | None, int | None, str, str]:
    """(values, None, out, err) of one reading of argv, or (None, exit
    code, out, err) where it raised SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            values = vars(parse(argv))
    except SystemExit as exc:
        return None, exc.code, out.getvalue(), err.getvalue()
    return values, None, out.getvalue(), err.getvalue()


integers = st.integers(-(10**6), 10**6).map(str)
non_integers = st.sampled_from(["many", "", "3.5", "-3.5", "-1e3", " 7 ", "-7 ", "0x10", "1_0"])
misspelt = st.sampled_from(CHECK_NAMES).flatmap(
    lambda name: st.integers(0, len(name) - 1).map(lambda i: name[:i] + name[i + 1 :])
)
values = st.one_of(integers, non_integers, st.sampled_from(CHECK_NAMES), misspelt)
options = st.one_of(
    st.sampled_from(["--json", "--certificates", "--quiet"]).map(lambda flag: [flag]),
    st.tuples(st.sampled_from(["--budget", "--obstruction"]), values, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]]
    ),
    # a flag with a value, a valued option with none, help, unknown options
    st.sampled_from(["--json=1", "--quiet=", "--budget", "--obstruction", "-h", "--help"]).map(
        lambda word: [word]
    ),
    st.sampled_from(["--x", "--cert", "--seed", "--json-x", "--budge=3", "-x", "-q"]).map(
        lambda word: [word]
    ),
)
positionals = st.sampled_from(["lens(3,1)+lens(3,2)", "pretzel(3,-5,-8)", "torus", "", " lens(3,1)"])


@st.composite
def argvs(draw) -> list[str]:
    """Up to six options and up to two positionals, in any order."""
    items = draw(st.lists(options, max_size=6))
    items += [[word] for word in draw(st.lists(positionals, max_size=2))]
    return [word for item in draw(st.permutations(items)) for word in item]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_argv_is_read_as_the_reference_parser_reads_it(argv):
    """The option loop reads the values, or exits with the code, that the
    argparse reference does; a usage error is compared by its code alone,
    as argparse words its messages differently across versions, and the
    loop's is the usage line and one error line on stderr.  A bare '--',
    which argparse reads as the end of the options, and a word '-1',
    which it reads as the expression, are usage errors of the loop and
    are not drawn; each still exits 64 through main."""
    values, code, out, err = read(cli._read_argv, argv)
    assert (values, code) == read(REFERENCE.parse_args, argv)[:2]
    if code == 0:
        assert out.startswith(f"{cli._USAGE}\n\n") and not err
    elif code == 64:
        usage, error = err.splitlines()
        assert (out, usage) == ("", cli._USAGE) and error.startswith("s4embed: error: ")


def test_help_exits_zero(capsys):
    assert exit_code("--help") == 0
    out = capsys.readouterr().out
    assert "--seed" not in out
    assert all(f"  {name}" in out and text in out for name, (_, text) in cli._OPTIONS.items())


def test_the_cli_imports_no_argparse():
    """argparse imports gettext, and building a parser imports locale:
    about 3 ms of every process start, which the argv loop does not pay."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import s4embed.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    s4embed.cli.main(['lens(3,1)+lens(3,2)', '--json'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_options_do_not_leak_between_calls(capsys):
    """Each call reads its arguments from the defaults: a second call
    keeps nothing of the first one's options."""
    expr = "lens(3,1)+lens(3,2)"
    assert main([expr, "--obstruction", "torsion_square", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in first["obstructions"]] == ["torsion_square"]

    assert main([expr]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"input:      {expr}\n")
    # a lens sum is decided by these two; the searches run for certificates
    checks = ["torsion_square", "lens_mirror_pairing"]
    names = [line.split("] ")[1].split()[0] for line in out.splitlines() if line.startswith("  [")]
    assert names == checks


def run_python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        **kwargs,
    )


def within_limits():
    """Child-process limits: 1 GiB of address space, 10 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (10, 10))


@pytest.mark.parametrize(
    "expr",
    ["lens(301,300)", "lens(2001,2000)", "lens(100001,100000)", "lens(1000000007,1000000006)"],
)
def test_long_chains_are_refuted_within_limits(expr):
    """lens(p,p-1) plumbs a chain of p - 1 vertices.  H_1 = Z/p, read off
    the summands, is coker Q of either side's chain and not H + H, so the
    certificate checks refute it with no plumbing built, well inside the
    limits."""
    done = run_python(
        "-m", "s4embed.cli", expr, "--json", "--certificates", preexec_fn=within_limits
    )
    assert done.returncode == 1, done.stderr
    out = json.loads(done.stdout)
    assert out["status"] == "OBSTRUCTED"
    assert [r["verdict"] for r in out["obstructions"]] == ["obstructed"] * 4


def test_a_long_mirror_pair_is_summarised_within_limits():
    """lens(1000003,1000002) + lens(1000003,1) plumbs 1,000,003 vertices
    on each side.  The theorem says it embeds, so its certificate rows
    pass with a built pair; past PRINTED_ROWS rows the pair is summarised
    in the note, with no plumbing built, well inside the limits."""
    expr = "lens(1000003,1000002)+lens(1000003,1)"
    done = run_python(
        "-m", "s4embed.cli", expr, "--json", "--certificates", preexec_fn=within_limits
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    notes = (
        "cokernel splits as H + H, by a pair built from the mirror chains; "
        "its 1000003 rows, past 1000, are neither built nor printed"
    )
    half = {"subgroup_factors": [1000003], "order": 1000003}
    assert [(r["name"], r["notes"], r["certificate"]) for r in out["obstructions"][2:]] == [
        (name, notes, [[half, half]]) for name in ("double_subset", "double_subset_mirror")
    ]


@pytest.mark.parametrize(
    "expr, rows",
    [
        ("seifert(N(1);0;(10007,1),(10007,-1))", 10007),
        ("seifert(N(1);0;(1000003,1),(1000003,-1))", 1000003),
        # two pairs of even a of one class: A' matches them cyclically
        ("seifert(N(1);0;(10008,1),(10008,-1),(10008,1),(10008,-1))", 20016),
    ],
)
def test_long_weak_paired_legs_end_within_limits(expr, rows):
    """A weak pair (a, 1), (a, -1) plumbs a chain of a - 1 vertices and a
    lone vertex.  A default report runs neither non-orientable row, as
    both only certify.  With --certificates both pass with a built pair,
    for one or two pairs of even a, summarised past PRINTED_ROWS rows.
    Neither builds a plumbing, and the report ends UNKNOWN well inside
    the limits."""
    notes = (
        "cokernel is H + H twice over with small intersection, by a pair built from "
        f"the mirror chains; its {rows} rows, past 1000, are neither built nor printed"
    )
    names = ("nonorientable_double_subset", "nonorientable_double_subset_mirror")
    for flags, tail in (((), []), (("--certificates",), [(name, "pass", notes) for name in names])):
        done = run_python("-m", "s4embed.cli", expr, "--json", *flags, preexec_fn=within_limits)
        assert done.returncode == 2, done.stderr
        out = json.loads(done.stdout)
        assert [(r["name"], r["verdict"], r.get("notes")) for r in out["obstructions"][3:]] == tail


@pytest.mark.parametrize(
    "expr, rows, plumbed",
    [
        ("seifert(O(1);0;(10007,1),(10007,-1))", 10008, 0),
        # mubar_vanishing reads the '+' plumbing of a pretzel form
        ("seifert(S2;0;(3,1),(3,-1),(10007,1),(10007,-1))", 10011, 1),
        ("seifert(S2;1;(2,1),(2,1),(10007,1),(10007,-1))", 10010, 1),
    ],
)
def test_long_e0_certificate_rows_end_within_limits(monkeypatch, expr, rows, plumbed):
    """The fibre (10007, 1) plumbs a leg of 10,006 vertices.  The legs of
    these e = 0 stars pair into complements, so both semidefinite rows
    pass with rows built from them; a star counts its hub as one row and
    each leg's length, so past PRINTED_ROWS rows the built rows are
    summarised, and the report embeds well inside the limits.  In
    process, the rows build no plumbing: only mubar_vanishing's, where it
    runs."""
    done = run_python(
        "-m", "s4embed.cli", expr, "--json", "--certificates", preexec_fn=within_limits
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["status"] == "EMBEDS"
    notes = (
        "-Q factors through one fewer column, by rows built from the complementary legs; "
        f"its {rows} rows, past 1000, are neither built nor printed"
    )
    names = ("semidefinite_subset", "semidefinite_subset_mirror")
    assert [(r["name"], r["verdict"], r["notes"]) for r in out["obstructions"][-2:]] == [
        (name, "pass", notes) for name in names
    ]
    built = []
    plumbing_tree = classify.plumbing_tree

    def counted(*args, **kwargs):
        built.append(args)
        return plumbing_tree(*args, **kwargs)

    monkeypatch.setattr(classify, "plumbing_tree", counted)
    assert full_report(parse_manifold(expr), certificates=True).status == "EMBEDS"
    assert len(built) == plumbed


def test_torsion_check_alone_builds_no_plumbing():
    """The fibre (10000019, 1) plumbs a chain of about 10^7 vertices.
    H_1 comes from the fibres' chain ends, and with only torsion_square
    asked for no row reads the plumbing, so the space is refuted well
    inside the limits."""
    expr = "seifert(S2;0;(2,1),(3,1),(10000019,1))"
    done = run_python(
        "-m", "s4embed.cli", expr, "--obstruction", "torsion_square", "--json",
        preexec_fn=within_limits,
    )
    assert done.returncode == 1, done.stderr
    out = json.loads(done.stdout)
    assert [(r["name"], r["verdict"]) for r in out["obstructions"]] == [
        ("torsion_square", "obstructed")
    ]


@pytest.mark.parametrize(
    "expr, flags, refuted_by",
    [
        ("seifert(S2;0;" + ",".join(["(2,1)"] * 1000) + ")", (), "torsion_square"),
        ("seifert(S2;0;" + ",".join(["(2,1)"] * 1000) + ")", ("--certificates",), "torsion_square"),
        ("+".join(["lens(3,1)"] * 3000), (), "lens_mirror_pairing"),
    ],
    ids=["fibres", "fibres-certificates", "summands"],
)
def test_many_fibres_or_summands_take_no_smith_form(monkeypatch, expr, flags, refuted_by):
    """1,000 fibres (2,1) give H_1 = (Z/2)^998 + Z/2000, of order 2^1002 125,
    not a square; 3,000 summands L(3,1) give (Z/3)^3000, and none pairs
    into a mirror.  H_1 is read in closed form off the fibres or summands,
    where a Smith form of the chain-end presentation would take O(n^3)
    steps, so each is refuted well inside the limits and, in process,
    takes no Smith form."""
    done = run_python("-m", "s4embed.cli", expr, "--json", *flags, preexec_fn=within_limits)
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["reason"] == f"obstruction:{refuted_by}"
    taken = []
    smith_normal_form = intlinalg.smith_normal_form
    monkeypatch.setattr(
        intlinalg, "smith_normal_form", lambda M: taken.append(M) or smith_normal_form(M)
    )
    assert main([expr, "--quiet", *flags]) == 1
    assert taken == []


def test_a_default_report_stops_before_the_long_leg():
    """By default the same space is refuted by torsion_square, its first
    row, and the report stops there: double_subset, which would build
    the 10^7-vertex leg, does not run."""
    done = run_python(
        "-m", "s4embed.cli", "seifert(S2;0;(2,1),(3,1),(10000019,1))", "--json",
        preexec_fn=within_limits,
    )
    assert done.returncode == 1, done.stderr
    out = json.loads(done.stdout)
    assert [(r["name"], r["verdict"]) for r in out["obstructions"]] == [
        ("torsion_square", "obstructed")
    ]
    assert out["reason"] == "obstruction:torsion_square"


def test_a_default_report_still_reads_conflict(monkeypatch, capsys):
    """A catalog hit beside a refutation is a CONFLICT, exit 70, also when
    the report stops at that first refutation: a planted entry that
    matches pretzel(3,5,7), refuted by torsion_square."""
    planted = CatalogEntry("planted", "none", lambda ctx: ctx.manifold == PretzelCover([3, 5, 7]))
    monkeypatch.setattr(classify, "CATALOG", (*classify.CATALOG, planted))
    report = full_report(PretzelCover([3, 5, 7]))
    assert list(report.results) == ["torsion_square"]
    reason = "catalog:planted contradicts obstruction:torsion_square"
    assert (report.status, report.reason) == ("CONFLICT", reason)
    assert main(["pretzel(3,5,7)", "--json"]) == 70
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["reason"]) == ("CONFLICT", reason)


P, Q = 10**2200 + 1, 10**2200 + 3  # coprime


@pytest.mark.parametrize("flags", [[], ["--json"], ["--quiet"]])
@pytest.mark.parametrize(
    "text, position",
    [(f"lens({P},1)+lens({Q},1)", 0), (f"seifert(S2;1;({P},1),({Q},1))", 8)],
    ids=["lens sum", "seifert"],
)
def test_a_torsion_too_large_to_print_is_a_parse_error(text, position, flags, capsys):
    """Each literal has 2,201 digits, but the torsion of H_1 has order
    about 10^4400, and the report prints its factors: the parser refuses
    it, exit 64, in every output mode."""
    message = f"torsion of H_1 too large to print in 4,300 digits at position {position}"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_manifold(text)
    assert main([text, *flags]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_torsion_of_4299_digits_prints(capsys):
    """Just under the limit the sum parses and its factor prints."""
    p, q = 10**2149 + 1, 10**2149 + 3
    assert main([f"lens({p},1)+lens({q},1)", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["invariants"]["torsion_factors"] == [p * q]


def test_usage_error_exit_code_of_the_process():
    """An unknown option, an abbreviation or a bare '--' is a usage error:
    two lines on stderr, exit 64."""
    for word in ("--bogus", "--cert", "--"):
        done = run_python("-m", "s4embed.cli", "lens(3,1)+lens(3,2)", word)
        assert done.returncode == 64
        error = f"s4embed: error: unrecognized arguments: {word}"
        assert done.stderr.splitlines() == [cli._USAGE, error]


def test_a_reader_that_closes_the_pipe_early_leaves_the_exit_code():
    """A reader that closes stdout after one line, as ``head -1`` does,
    leaves the status's own exit code and an empty stderr: the 3,000
    summands' JSON report, about 100 kB, passes the pipe's buffer, so
    its print meets the closed pipe."""
    expr = "+".join(["lens(3,1)+lens(3,2)"] * 1500)
    child = subprocess.Popen(
        [sys.executable, "-m", "s4embed.cli", expr, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (0, b"")


def fail_with(exc):
    def full_report(*args, **kwargs):
        raise exc

    return full_report


def test_internal_error_is_one_structured_line(monkeypatch, capsys):
    monkeypatch.setattr(cli, "full_report", fail_with(ZeroDivisionError("no\nway")))
    reason = "internal:ZeroDivisionError: no way"

    assert main(["pretzel(3,-5,-8)", "--json"]) == 70
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "input": parse_manifold("pretzel(3,-5,-8)").describe(),
        "status": "ERROR",
        "reason": reason,
    }

    assert main(["pretzel(3,-5,-8)"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"


def test_running_out_of_memory_is_one_internal_error_line():
    """lens(3,1) summed 3,000 times with --certificates peaks near 160 MB,
    so under a 120 MB address-space limit its report raises MemoryError.
    The error line is built once the failed report's frames are freed, so
    --json prints one JSON line, and both modes exit 70."""
    expr = "+".join(["lens(3,1)"] * 3000)

    def small_memory():
        resource.setrlimit(resource.RLIMIT_AS, (120 << 20, 120 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

    for flags in ([], ["--json"]):
        done = run_python(
            "-m", "s4embed.cli", expr, "--certificates", *flags, preexec_fn=small_memory
        )
        assert done.returncode == 70, done.stderr
        if flags:
            assert done.stderr == "" and done.stdout.count("\n") == 1
            error = json.loads(done.stdout)
            assert error["status"] == "ERROR", error
            assert error["reason"].startswith("internal:MemoryError"), error
        else:
            assert (done.stdout, done.stderr) == ("", "error: internal:MemoryError: \n")


@pytest.mark.parametrize("flags", [[], ["--json"], ["--quiet"]])
def test_a_fault_while_printing_is_one_internal_error_line(flags, monkeypatch, capsys):
    """A fault in rendering the report, here an integer past the
    interpreter's digit limit, exits 70 with its one line and nothing
    else in every output mode: the output is built whole inside the
    internal-error guard, also when --quiet does not print it."""
    fault = fail_with(ValueError("Exceeds the limit (4300 digits) for integer string conversion"))
    monkeypatch.setattr(cli, "report_to_json", fault)
    monkeypatch.setattr(cli, "_text_report", fault)
    assert main(["pretzel(3,-5,-8)", *flags]) == 70
    captured = capsys.readouterr()
    line = captured.out if "--json" in flags else captured.err
    assert captured.out + captured.err == line and line.count("\n") == 1
    assert "internal:ValueError: Exceeds the limit (4300 digits)" in line


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize(
    "expr, b1, spin",
    LARGE_GENUS,
    ids=["O(10^4)", "O(10^12)", "N(10^12)", "O(10^4299)", "m=14284", "m=14285"],
)
def test_a_large_base_genus_prints(expr, b1, spin, flags):
    """Sigma_g x S^1 embeds whatever g, and the report prints b_1 and the
    spin count 2^m with the interpreter's default digit limit: as an
    integer while m <= 14,284 (at most 4,300 digits), else as "2^m",
    with no 2^m built, so each run keeps within the child limits.  N(k)
    with no fibres is a circle bundle that the catalog embeds too."""
    done = run_python("-m", "s4embed.cli", expr, *flags, preexec_fn=within_limits)
    assert done.returncode == 0, done.stderr
    if "--json" in flags:
        invariants = json.loads(done.stdout)["invariants"]
        assert (invariants["b1"], invariants["spin_count"]) == (b1, spin)
    else:
        assert f"b1={b1} " in done.stdout and f"spin={spin}\n" in done.stdout


def test_a_genus_too_large_to_print_is_a_parse_error():
    """b_1 is at most 2g + 1 over O(g), so a genus whose 2g + 1 passes
    4,300 digits is refused where the base starts, and the CLI exits 64;
    10^4299 still parses."""
    message = r"^base genus too large to print H_1 in 4,300 digits at position 8$"
    text = f"seifert(O({5 * 10**4299}); 0; )"
    with pytest.raises(ParseError, match=message):
        parse_manifold(text)
    assert exit_code(text) == 64
    assert parse_manifold(f"seifert(O({GENUS_4300}); 0; )").genus == 10**4299


def test_the_budget_reaches_every_search(capsys):
    """--budget bounds each search of the report: lens(5,1)+lens(5,1) has
    torsion Z/5 + Z/5 and a hyperbolic linking form, so both double-subset
    certificates search, and with 3 nodes both stop inconclusive; the sum
    is still refuted by the theorem, as its summands do not pair into
    mirrors."""
    assert main(["lens(5,1)+lens(5,1)", "--json", "--certificates", "--budget", "3"]) == 1
    out = json.loads(capsys.readouterr().out)
    searches = [(r["name"], r["verdict"], r["notes"]) for r in out["obstructions"][2:]]
    notes = "budget exhausted after 3 nodes; 0 subset(s) found"
    assert searches == [
        ("double_subset", "inconclusive", notes),
        ("double_subset_mirror", "inconclusive", notes),
    ]
    assert (out["status"], out["reason"]) == ("OBSTRUCTED", "obstruction:lens_mirror_pairing")


def test_a_mirror_pair_passes_with_its_built_pair_under_any_budget(capsys):
    """A sum that the theorem says embeds searches nothing: under a 3-node
    budget both certificate rows pass with the built pair."""
    assert main(["lens(9,2)+lens(9,7)", "--json", "--certificates", "--budget", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = [(r["name"], r["verdict"], r["notes"]) for r in out["obstructions"][2:]]
    built = "cokernel splits as H + H, by a pair built from the mirror chains"
    assert rows == [("double_subset", "pass", built), ("double_subset_mirror", "pass", built)]
    assert (out["status"], out["reason"]) == ("EMBEDS", "catalog:mirror_lens_sum")


def test_interrupt_is_not_swallowed(monkeypatch):
    monkeypatch.setattr(cli, "full_report", fail_with(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["pretzel(3,-5,-8)", "--quiet"])


# The CLI with the stage its first argument names made to fail: parsing
# as running out of memory would, the lattice search of the classifier
# as a too-deep recursion would, and both writers as an integer past the
# digit limit would.
CLI_FAILING_AT = """
import sys
from s4embed import classify, cli

def fail(error):
    def failing(*args, **kwargs):
        raise error

    return failing

digits = ValueError("Exceeds the limit (4300 digits) for integer string conversion")
stages = {
    "parse_manifold": [(cli, "parse_manifold", MemoryError())],
    "search": [(classify, "double_subset_obstruction", RecursionError("maximum recursion depth"))],
    "writer": [(cli, "report_to_json", digits), (cli, "_text_report", digits)],
}
for module, name, error in stages[sys.argv.pop(1)]:
    setattr(module, name, fail(error))
sys.exit(cli.main(sys.argv[1:]))
"""

FAILING_STAGE_REASONS = {
    "parse_manifold": "internal:MemoryError: ",
    "search": "internal:RecursionError: maximum recursion depth",
    "writer": "internal:ValueError: Exceeds the limit (4300 digits) for integer string conversion",
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("stage", FAILING_STAGE_REASONS)
def test_internal_error_of_the_process_has_no_traceback(stage, mode):
    """A fault at any stage of a run exits 70 in a child process, with one
    line and no traceback: ``error: <reason>`` on stderr in text mode, and
    with --json the error object on stdout, whose "input" is the
    canonical form where a manifold was parsed and the text as given
    where none was.  The search of a lens sum runs only for
    certificates, and only where the sum is refuted and its linking form
    hyperbolic."""
    text, flags = " lens(5,1) + lens(5,1) ", ["--json"] if mode == "json" else []
    done = run_python("-c", CLI_FAILING_AT, stage, text, "--certificates", *flags)
    reason = FAILING_STAGE_REASONS[stage]
    assert done.returncode == 70, done.stderr
    if flags:
        assert done.stderr == "" and done.stdout.count("\n") == 1
        form = text if stage == "parse_manifold" else parse_manifold(text).describe()
        assert json.loads(done.stdout) == {"input": form, "status": "ERROR", "reason": reason}
    else:
        assert (done.stdout, done.stderr) == ("", f"error: {reason}\n")
