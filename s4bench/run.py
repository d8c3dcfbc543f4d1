"""s4embed benchmark: a closed loop with one client over seeded inputs.

Usage, from the root of a checkout::

    python3 s4bench/run.py --workload pretzel_grid --seed 1 --seconds 30 --trace 0
    python3 s4bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each input is a DSL string handed to ``s4embed.cli.main([expr, "--json",
...])`` in this process with stdout captured; it is timed from the call
until its JSON has been parsed and checked against the known answer from
``reference``.  One input is sent only after the previous one finished.

Times are CPU seconds of this process (``time.process_time``), not wall
time: the loop is single-threaded and CPU-bound, and on a shared machine
wall time also counts the time other tenants hold the processor.

``--trace 0`` makes ``PASSES`` passes through the workload, or fewer if
``--seconds`` runs out first: no pass starts after that.  The passes
take about three quarters of the 30 s a run is given, so the count
changes only for a program or machine a third slower than when the
benchmark was defined.  Every pass presents each manifold of the
workload afresh, from a seed derived from ``--seed`` and the pass number
(new order, mirror and framing shifts, the same form to search), so a
cache keyed on the input text never hits across passes; a cache keyed on
the manifold itself would, from the second pass on.  An input's latency
is its fastest pass, and throughput is the inputs completed per CPU
second of the fastest whole pass.  With the pass count fixed, the
minimum has the same bias on every commit, and it drops the slowdowns
other tenants of a shared machine cause during single passes: over eight
seeds on a shared 2-vCPU machine, on ``lens_certificates``, the quartile
spread of throughput, p50 and p90 was 0.06, 0.11 and 0.13 of the median
with minima and 0.23, 0.24 and 0.37 with medians over the passes.
``setup_s`` is the median CPU time of ``SETUP_PER_PASS`` fresh-process
starts after each pass.

``--trace 1`` makes two passes untraced and two under the layer tracer,
alternating, and reports per-layer totals over the traced passes and the
tracing overhead.  It makes a fixed number of passes, so the counts
repeat exactly.  Spans and the overhead are wall time, since a CPU clock
read per span would cost several times more.  The spans are written to
``.bench_trace/`` in the checkout.

``--workload all`` runs each workload in its own process, so that
``peak_rss_mb`` is that workload's own peak.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when the program claims
a verdict (EMBEDS or OBSTRUCTED) other than the known answer or returns a
subset certificate that does not factor the form.  UNKNOWN where the
answer is known is a wrong verdict for ``right_verdict_frac`` but not a
false claim.  An input that raises, reports CONFLICT or exits with a code
that does not match its status is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import reference as ref
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per-input limit behind within_limit_frac: 1.5 to 3.5 times each
# workload's p90 CPU time per input when the benchmark was defined
LIMIT_MS = {"pretzel_grid": 10, "lens_certificates": 100, "lattice_search": 50}

EXIT_CODES = {ref.EMBEDS: 0, ref.OBSTRUCTED: 1, ref.UNKNOWN: 2}

PASSES = 6  # end-to-end passes per run
SETUP_PER_PASS = 3
TRACE_PASSES = 2  # traced passes, each after an untraced one
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import s4embed.cli
with contextlib.redirect_stdout(io.StringIO()):
    s4embed.cli.main(["lens(3,1)+lens(3,2)", "--json"])
"""


@dataclass
class Outcome:
    seconds: float
    error: str  # why the input failed ("" if it did not)
    right: bool  # verdict in the allowed set and every certificate valid
    false_claim: bool  # a definite verdict or certificate that is wrong

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class Pass:
    outcomes: dict[int, Outcome]  # by case key
    cpu_s: float
    wall_s: float


def certificates_valid(case, report: dict) -> bool:
    for name, rows in ref.subset_certificates(report):
        summands = case.chains.get(name)
        if summands is None or not ref.check_lens_certificate(rows, summands):
            return False
    return True


def run_case(cli_main, case) -> Outcome:
    buf = io.StringIO()
    start = process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main([case.expr, *case.flags])
        report = json.loads(buf.getvalue())
        status = report["status"]
        certs_ok = certificates_valid(case, report)
    except Exception as exc:  # a crash is a failed input, not a benchmark error
        return Outcome(process_time() - start, type(exc).__name__, False, False)
    seconds = process_time() - start
    if EXIT_CODES.get(status) != code:
        return Outcome(seconds, f"status {status} with exit code {code}", False, False)
    right = status in case.allowed and certs_ok
    false_claim = not certs_ok or (status != ref.UNKNOWN and status not in case.allowed)
    return Outcome(seconds, "", right, false_claim)


def run_pass(cli_main, cases, tracer=None) -> Pass:
    """Send every case once, each only after the previous one finished."""
    outcomes = {}
    wall, cpu = perf_counter(), process_time()
    for case in cases:
        if tracer is not None:
            tracer.input_id = case.key
        outcomes[case.key] = run_case(cli_main, case)
    return Pass(outcomes, process_time() - cpu, perf_counter() - wall)


def per_input(passes: list[Pass]) -> dict[int, Outcome]:
    """One outcome per input: its fastest pass, failed or wrong if any
    pass was."""
    out = {}
    for key in passes[0].outcomes:
        runs = [p.outcomes[key] for p in passes]
        out[key] = Outcome(
            min(o.seconds for o in runs),
            next((o.error for o in runs if o.failed), ""),
            all(o.right for o in runs),
            any(o.false_claim for o in runs),
        )
    return out


def setup_once() -> float:
    """CPU seconds of a fresh interpreter that imports s4embed and makes
    one trivial call, start-up included."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True, check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, passes: list[Pass], setup: float) -> dict:
    outcomes = list(per_input(passes).values())
    n = len(outcomes)
    latencies = [o.seconds * 1000 for o in outcomes]
    limit = LIMIT_MS[workload]
    rates = [sum(not o.failed for o in p.outcomes.values()) / p.cpu_s for p in passes]
    return {
        "throughput_per_s": metric(max(rates), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.9), "ms"),
        "within_limit_frac": metric(sum(o.right and o.seconds * 1000 <= limit for o in outcomes) / n, "frac"),
        "right_verdict_frac": metric(sum(o.right for o in outcomes) / n, "frac"),
        "completed_frac": metric(sum(not o.failed for o in outcomes) / n, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup, "s"),
    }


def per_layer(tracer: Tracer, plain: list[Pass], traced: list[Pass]) -> dict:
    """Totals over the traced passes, and the overhead of tracing: the wall
    time of the fastest traced pass minus that of the fastest untraced one."""
    inputs = len(plain[0].outcomes)
    plain_s = min(p.wall_s for p in plain)
    traced_s = min(p.wall_s for p in traced)
    traced_total = sum(p.wall_s for p in traced)
    fns = tracer.per_function()
    counts = tracer.counts
    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            row = fns.get(f"{layer}.{fname}", {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            out[f"{layer}.{fname}.calls"] = metric(row["calls"], "count")
            out[f"{layer}.{fname}.busy_s"] = metric(row["busy_s"], "s")
            out[f"{layer}.{fname}.self_s"] = metric(row["self_s"], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    first_homology = out["manifolds.first_homology.calls"]["value"]
    out["manifolds.first_homology.calls_per_input"] = metric(
        ratio(first_homology, inputs * len(traced)), "count/input"
    )
    out["lattice.subsets_found"] = metric(counts["lattice.subsets_found"], "count")
    out["lattice.exhausted"] = metric(counts["lattice.exhausted"], "count")
    out["obstructions.char_filter_kept_frac"] = metric(
        ratio(counts["obstructions.char_filter_kept"], out["obstructions.char_vector_criterion.calls"]["value"]), "frac"
    )
    out["obstructions.split_found_per_pair"] = metric(
        ratio(counts["obstructions.split_found"], out["intlinalg.direct_sum_test.calls"]["value"]), "frac"
    )
    out["obstructions.inconclusive"] = metric(counts["obstructions.inconclusive"], "count")
    for key in ("intlinalg.signature_triple", "intlinalg.direct_sum_test", "lattice.enumerate_subsets"):
        out[f"{key}.busy_share"] = metric(ratio(out[f"{key}.busy_s"]["value"], traced_total), "frac")
    out["trace.inputs"] = metric(inputs, "count")
    out["trace.untraced_s"] = metric(plain_s, "s")
    out["trace.traced_s"] = metric(traced_s, "s")
    out["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    out["trace.overhead_frac"] = metric(ratio(traced_s - plain_s, plain_s), "frac")
    return out


def run_workload(cli_main, workload: str, seed: int, seconds: float, trace: bool):
    """The result object for one workload, and (case, outcome over every
    pass) per input."""

    def presentation(i):
        return WORKLOADS[workload](f"{seed}.{i}")

    run_pass(cli_main, presentation("warm-up")[:5])  # not measured
    if not trace:
        passes, setup_times = [], []
        start = perf_counter()
        while len(passes) < PASSES and perf_counter() - start < seconds:
            passes.append(run_pass(cli_main, presentation(len(passes))))
            setup_times += [setup_once() for _ in range(SETUP_PER_PASS)]
        metrics = end_to_end(workload, passes, statistics.median(setup_times))
    else:
        tracer = Tracer()
        plain, traced = [], []
        for i in range(TRACE_PASSES):
            cases = presentation(i)
            plain.append(run_pass(cli_main, cases))
            with tracer:
                traced.append(run_pass(cli_main, cases, tracer))
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{workload}-seed{seed}.jsonl")
        passes = plain + traced
        metrics = per_layer(tracer, plain, traced)
    calls = [o for p in passes for o in p.outcomes.values()]
    result = {
        "correct": not any(o.false_claim for o in calls),
        "attempted": len(calls),
        "failed": sum(o.failed for o in calls),
        "metrics": metrics,
    }
    overall = per_input(passes)
    return result, [(case, overall[case.key]) for case in presentation(0)]


def describe(workload: str, result: dict, inputs) -> None:
    """Human-readable lines before the JSON result: every metric, and the
    shares of wrong verdicts and failures, counted once per input, with
    the kinds of input they came from."""
    n = len(inputs)
    print(f"[{workload}] inputs {n}, calls {result['attempted']}, failed calls {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    wrong = Counter(case.kind for case, o in inputs if not o.right and not o.failed)
    failed = Counter(f"{case.kind}: {o.error}" for case, o in inputs if o.failed)
    print(f"[{workload}] wrong_verdict_frac = {sum(wrong.values()) / n:.6g} {dict(wrong)}")
    print(f"[{workload}] failed_frac = {sum(failed.values()) / n:.6g} {dict(failed)}")


def run_each(args) -> dict:
    """Every workload in a process of its own; their results merged, each
    metric named after its workload."""
    results = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                              stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "s4embed" / "__init__.py").is_file():
        print(f"error: no s4embed sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_each(args)))
        return 0
    sys.path.insert(0, str(SRC))
    import s4embed.cli

    result, inputs = run_workload(s4embed.cli.main, args.workload, args.seed, args.seconds, bool(args.trace))
    describe(args.workload, result, inputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
