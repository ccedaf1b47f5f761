"""Spans and counters around pbrlab's layers, recorded from outside.

`install` replaces each layer's public function with a wrapper at the name
the caller looks it up by (a module attribute, or a name `cli` imported
into its own namespace), and `Recorder.uninstall` puts the originals back.
A span records its name, start, end, parent span and command id; spans are
kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, span name). Several lookup sites may share a name.
WRAPPED = (
    ("pbrlab.hilbert", "born_targets", "hilbert.born_targets"),
    ("pbrlab.nogo", "build_feasibility", "nogo.build"),
    ("pbrlab.nogo", "solve_feasibility", "simplex.solve"),
    ("pbrlab.nogo", "verify_certificate", "nogo.audit"),
    ("pbrlab.nogo", "witness_model", "nogo.witness_model"),
    ("pbrlab.contextual", "build_interval_model", "contextual.build"),
    ("pbrlab.contextual", "refutation_report", "contextual.report"),
    ("pbrlab.ontology", "validate_model", "ontology.validate"),
    ("pbrlab.contextual", "validate_model", "ontology.validate"),
    ("pbrlab.ontology", "predict", "ontology.predict"),
    ("pbrlab.ontology", "sample", "ontology.sample"),
    ("pbrlab.cli", "model_to_json", "serialize.to_json"),
    ("pbrlab.cli", "model_from_json", "serialize.from_json"),
    ("pbrlab.cli", "rho_pair_from_json", "serialize.from_json"),
    ("pbrlab.cli", "dumps_canonical", "serialize.dumps"),
    ("pbrlab.serialize", "dumps_canonical", "serialize.dumps"),
)
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: int
    parent: int          # index into Recorder.spans, -1 for a root
    command: int
    end: int = 0
    children_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.children_ns


def _max_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    command: int = 0
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _originals: list = field(default_factory=list)
    _results: list = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        if span.parent >= 0:
            self.spans[span.parent].children_ns += span.end - span.start

    def call(self, name: str, fn, *args, **kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        self._results.append((name, result))
        return result

    def count_results(self) -> None:
        """Fold the results kept since the last call into the counts. Runs
        between commands, so counting costs no span any time."""
        for name, result in self._results:
            try:
                self._count(name, result)
            except (AttributeError, TypeError, IndexError):
                pass  # a result of another shape: that count stays unrecorded
        self._results.clear()

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name: str, result) -> None:
        """Counts taken from a layer's result."""
        if name == "nogo.build":
            rows, cols = len(result.A), len(result.A[0])
            if rows * cols > self.counts.get("nogo.lp_rows", 0) * self.counts.get("nogo.lp_cols", 0):
                nonzero = sum(1 for row in result.A for a in row if a)
                self.counts.update({"nogo.lp_rows": rows, "nogo.lp_cols": cols,
                                    "nogo.lp_nonzero": nonzero})
        elif name == "simplex.solve":
            values = (result.certificate if not result.feasible else
                      [v for plane in result.witness.p for row in plane for v in row])
            bits = _max_bits(values)
            self.counts["simplex.result_max_bits"] = max(
                bits, self.counts.get("simplex.result_max_bits", 0))
        elif name == "serialize.dumps":
            self._add("serialize.json_bytes", len(result.encode()))
        elif name == "ontology.validate":
            self._add("ontology.validate_calls", 1)
        elif name == "ontology.sample":
            self._add("ontology.sample_trials", result.n)

    def install(self) -> None:
        """Wrap every lookup site in WRAPPED that the program still has;
        the ones it lacks are listed in `missing`."""
        import importlib
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper
