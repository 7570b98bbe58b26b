"""Spans around turanlab's public functions, recorded from outside the package.

While a Tracer is installed, each traced public name is rebound, in every
turanlab module that imported it, to a wrapper that records a span: name,
start, end, parent span and operation id.  Uninstalling restores the
original objects, so untraced passes run the unmodified code.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import turanlab
import turanlab.cli
import turanlab.hypercore
import turanlab.jumpcert
import turanlab.lagrangian
import turanlab.seqdensity
import turanlab.serialize
import turanlab.turansearch
from turanlab.errors import OptimizerFailureError

MODULES = (
    turanlab,
    turanlab.hypercore,
    turanlab.lagrangian,
    turanlab.turansearch,
    turanlab.jumpcert,
    turanlab.seqdensity,
    turanlab.serialize,
    turanlab.cli,
)

# public functions traced, by home module
TRACED = {
    turanlab.hypercore: ("canonical_form", "contains_subgraph", "contains_induced",
                         "blow_up", "lubell"),
    turanlab.lagrangian: ("maximize", "equivalence_classes", "evaluate",
                          "stationarity_residual"),
    turanlab.turansearch: ("pi_n", "density_sequence"),
    turanlab.jumpcert: ("build_certificate", "classify12", "weak_jump_witness"),
    turanlab.seqdensity: ("sigma_t", "density_estimate"),
    turanlab.serialize: ("dumps_canonical",),
}
TRACED_METHODS = ((turanlab.seqdensity.SequenceGenerator, "member"),)


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _digits(result):
    bound = result.certified_lower_bound
    return None if bound is None else len(str(abs(bound.numerator)))


# per-span notes for the ratio metrics, computed from the call's outcome
_NOTES = {
    "hypercore.contains_subgraph": bool,
    "hypercore.contains_induced": bool,
    "lagrangian.maximize": _digits,
    "turansearch.pi_n": lambda record: record.graphs_enumerated,
    "seqdensity.sigma_t": lambda report: report.exhaustive,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent, op_id, note)
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for home, names in TRACED.items():
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{_short(home.__name__)}.{name}", original)
                for module in MODULES:
                    if module.__dict__.get(name) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        for cls, name in TRACED_METHODS:
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self._wrap(f"{_short(cls.__module__)}.{name}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        note_of = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            except BaseException as exc:
                note = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, note)

        return traced

    # -- analysis --------------------------------------------------------

    def clear(self) -> None:
        self.spans.clear()

    def self_times(self):
        """Per span name: (calls, self seconds), self = duration minus the
        time covered by child spans."""
        covered = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = Counter()
        own = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - covered[index]
        return calls, own

    def notes(self, name):
        return [span[5] for span in self.spans if span[0] == name]

    def write(self, path, op_names) -> None:
        """Write the spans, times relative to the first span, gzip-compressed."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 9), round(end - origin, 9), parent, op, note]
            for name, start, end, parent, op, note in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "note"],
                       "ops": op_names, "spans": rows}, fh)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".graphs_enumerated")):
        return "count"
    if name.endswith(".cert_max_digits"):
        return "digits"
    return "ratio"


def layer_metrics(tracer: Tracer, cache_info) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``cache_info`` is canonical_form's LRU statistics for the same pass."""
    calls, own = tracer.self_times()

    def ratio(hits, total):
        return hits / total if total else 0.0

    contain = tracer.notes("hypercore.contains_subgraph") + tracer.notes(
        "hypercore.contains_induced")
    maxim = tracer.notes("lagrangian.maximize")
    failed = sum(1 for n in maxim if n == OptimizerFailureError.__name__)
    digits = [n for n in maxim if isinstance(n, int)]
    enumerated = [n for n in tracer.notes("turansearch.pi_n") if isinstance(n, int)]
    reports = [n for n in tracer.notes("seqdensity.sigma_t") if isinstance(n, bool)]
    lookups = cache_info.hits + cache_info.misses
    values = {
        "hypercore.canonical_form.calls": calls["hypercore.canonical_form"],
        "hypercore.canonical_form.self_s": own["hypercore.canonical_form"],
        "hypercore.canonical_form.hit_ratio": ratio(cache_info.hits, lookups),
        "hypercore.containment.calls": len(contain),
        "hypercore.containment.self_s": own["hypercore.contains_subgraph"]
        + own["hypercore.contains_induced"],
        "hypercore.containment.found_ratio": ratio(sum(1 for n in contain if n is True),
                                                   len(contain)),
        "hypercore.blow_up.self_s": own["hypercore.blow_up"],
        "hypercore.lubell.self_s": own["hypercore.lubell"],
        "lagrangian.maximize.calls": calls["lagrangian.maximize"],
        "lagrangian.maximize.self_s": own["lagrangian.maximize"],
        "lagrangian.maximize.failed": ratio(failed, len(maxim)),
        "lagrangian.equivalence_classes.self_s": own["lagrangian.equivalence_classes"],
        "lagrangian.evaluate.self_s": own["lagrangian.evaluate"],
        "lagrangian.stationarity_residual.self_s": own["lagrangian.stationarity_residual"],
        "lagrangian.cert_max_digits": max(digits, default=0),
        "turansearch.pi_n.calls": calls["turansearch.pi_n"],
        "turansearch.pi_n.self_s": own["turansearch.pi_n"],
        "turansearch.graphs_enumerated": sum(enumerated),
        "jumpcert.build_certificate.self_s": own["jumpcert.build_certificate"],
        "jumpcert.classify12.self_s": own["jumpcert.classify12"],
        "seqdensity.sigma_t.self_s": own["seqdensity.sigma_t"],
        "seqdensity.member.calls": calls["seqdensity.member"],
        "seqdensity.member.self_s": own["seqdensity.member"],
        "seqdensity.exhaustive_ratio": ratio(sum(reports), len(reports)),
        "serialize.dumps_canonical.self_s": own["serialize.dumps_canonical"],
    }
    return {name: (value, _unit(name)) for name, value in values.items()}
