"""Layer tracer: spans around the public functions of each s4embed layer.

The tracer wraps every listed function by replacing each ``s4embed.*``
module attribute bound to that function object; ``from .intlinalg import
signature`` copies the binding into the importing module, so patching
the defining module alone would miss most calls.  Each call records a
span (name, start, end, parent span, input id) in memory; ``restore``
puts the original objects back.  Counts that need a look at a return
value (subsets found, inconclusive checks, ...) are taken at the same
boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# layer (module) -> public functions on the paths the workloads exercise;
# ``subsets`` is absent because no production path calls it
LAYERS: dict[str, tuple[str, ...]] = {
    "intlinalg": (
        "signature_triple",
        "smith_normal_form",
        "cokernel",
        "hermite_row_basis",
        "subgroup_from_generators",
        "direct_sum_test",
    ),
    "lattice": ("enumerate_subsets",),
    "obstructions": (
        "double_subset_obstruction",
        "semidefinite_obstruction",
        "nonorientable_obstruction",
        "char_vector_criterion",
    ),
    "spin": ("spin_profile", "wu_sets", "mu_bar"),
    "manifolds": ("first_homology", "pretzel_to_seifert"),
    "plumbing": ("plumbing_tree",),
    "classify": ("full_report", "catalog_matches"),
    "cli": ("parse_manifold", "report_to_json"),
}

_OBSTRUCTIONS = (
    "obstructions.double_subset_obstruction",
    "obstructions.semidefinite_obstruction",
    "obstructions.nonorientable_obstruction",
)


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "lattice.enumerate_subsets":
        counts["lattice.subsets_found"] += len(result.subsets)
        counts["lattice.exhausted"] += result.status == "exhausted"
    elif name == "obstructions.char_vector_criterion":
        counts["obstructions.char_filter_kept"] += bool(result)
    elif name == "intlinalg.direct_sum_test":
        is_direct, isomorphic, meet = result
        counts["obstructions.split_found"] += is_direct and isomorphic and meet == 1
    elif name in _OBSTRUCTIONS:
        counts["obstructions.inconclusive"] += result.verdict == "inconclusive"


class Tracer:
    """Context manager: patch on enter, restore on exit."""

    def __init__(self):
        # span: [name, start, end, parent index, input id, nested in same name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.input_id = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, open_, counts = self.spans, self._stack, self._open, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, open_[name] > 0]
            spans.append(span)
            stack.append(index)
            open_[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_[name] -= 1
                stack.pop()
            _count_result(counts, name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "s4embed" or key.startswith("s4embed.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"s4embed.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summaries ---------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost calls only) and self_s for each name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if not nested:
                row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, after a header line naming the columns."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end", "parent", "input", "nested"], "counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
