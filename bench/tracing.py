"""In-memory span tracing of relaxcert, installed from outside the library.

`install` replaces each traced public function at every module binding
under ``relaxcert`` (for example both ``relaxcert.verify.certify_mixed``
and ``relaxcert.construct.certify_mixed``), and each traced method on its
class, with a wrapper that records a span: name, start, end, parent span
and job id.  Self time is a span's duration minus the time its child calls
took, added up as each child ends; calls on one thread never overlap, so
this is the time the children cover.

Field operations and determinants run up to a million times per job, so
they are kept only as per-name totals (calls, time, self time); every
other call is also kept as a span, and `write` stores them when the run
ends.  Field names carry the degree of the element's ``context``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SPAN_COLUMNS = ("id", "parent", "job", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.contexts: dict[int, object] = {}
        self.import_s: list[float] = []
        self.bits: dict[int, int] = {}
        self.job = -1
        self._stack = [[0, 0]]      # per open call: [span id, ns covered by children]
        self._next_id = 1

    def wrap(self, name, fn, keep_span=True, after=None):
        """`fn` wrapped in a span; `name` is a string or a function of the first argument."""
        calls, ns, self_ns, spans, stack = (self.calls, self.ns, self.self_ns,
                                            self.spans, self._stack)
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            label = fixed or name(args[0])
            frame = [0, 0]
            if keep_span:
                frame[0] = self._next_id
                self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                calls[label] += 1
                ns[label] += duration
                self_ns[label] += duration - frame[1]
                if keep_span:
                    spans.append((frame[0], parent[0], self.job, label, start, end,
                                  duration - frame[1]))
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def merge(self, dump: dict) -> None:
        """Add a child process's totals and spans, re-numbered, under the current job."""
        for key in ("calls", "ns", "self_ns", "counters"):
            target = getattr(self, key)
            for name, value in dump[key].items():
                target[name] += value
        offset = self._next_id
        for span in dump["spans"]:
            self.spans.append((span[0] + offset, span[1] + offset if span[1] else
                               self._stack[-1][0], self.job) + tuple(span[3:]))
            self._next_id = max(self._next_id, span[0] + offset + 1)
        for degree, bits in dump["bits"].items():
            self.bits[int(degree)] = max(self.bits.get(int(degree), 0), bits)
        self.import_s.extend(dump["import_s"])

    def read_bits(self) -> None:
        """Record the precision each field's isolating interval reached."""
        for degree, context in self.contexts.items():
            lo, hi = context.isolating_interval
            if degree > 1:
                bits = (hi - lo).denominator.bit_length() - 1
                self.bits[degree] = max(self.bits.get(degree, 0), bits)

    def dump(self) -> dict:
        self.read_bits()
        return {"calls": self.calls, "ns": self.ns, "self_ns": self.self_ns,
                "counters": self.counters, "spans": self.spans, "bits": self.bits,
                "import_s": self.import_s}

    def write(self, path: Path, meta: dict) -> None:
        """Store the spans as JSON lines: a header, one line per span, the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({**meta, "columns": SPAN_COLUMNS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"calls": self.calls, "ns": self.ns,
                                     "self_ns": self.self_ns,
                                     "counters": self.counters}) + "\n")


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _field_name(op):
    return lambda element: f"field.{op}.d{element.context.degree}"


def _note_context(tracer, args, kwargs, result):
    tracer.contexts[args[0].degree] = args[0]


def _eliminated(tracer, args, kwargs, result):
    tracer.counters["poly.eliminate.rows_in"] += args[0].num_rows
    tracer.counters["poly.eliminate.rows_out"] += result.num_rows


def _enumerated(tracer, args, kwargs, result):
    box = args[1] if len(args) > 1 else kwargs["box"]
    tracer.counters["poly.enumerate.box_points"] += box.volume
    tracer.counters["poly.enumerate.points_found"] += len(result)


def _perturbed(tracer, args, kwargs, result):
    eps = result[1]
    if eps:
        tracer.counters["lift.perturb.halvings"] += eps.denominator.bit_length() - 1


def _facets_found(tracer, args, kwargs, result):
    points = list(args[0])
    tracer.counters["cover.enumerate_facets.candidates"] += math.comb(
        len(points), len(points[0]) + 1)
    tracer.counters["cover.enumerate_facets.found"] += len(result)


def _verdict(tracer, args, kwargs, result):
    tracer.counters[f"verify.certify_mixed.{result.verdict}"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of relaxcert with `tracer`."""
    import relaxcert.cli  # noqa: F401  (bind every module before rebinding)
    from relaxcert import _linalg, construct, cover, field, lift, poly, verify

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "relaxcert" or n.startswith("relaxcert.")]

    def function(module, attr, name, **options):
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, **options)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    def method(cls, attrs, name, **options):
        wrapped = tracer.wrap(name, getattr(cls, attrs[0]), **options)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    element, context, system = field.FieldElement, field.FieldContext, poly.LinearSystem
    method(element, ("__mul__", "__rmul__"), _field_name("mul"), keep_span=False)
    method(element, ("inverse",), _field_name("inverse"), keep_span=False)
    method(element, ("sign",), _field_name("sign"), keep_span=False)
    method(context, ("sign_of_int_vector",), "field.sign_int", keep_span=False,
           after=_note_context)
    function(_linalg, "determinant", "linalg.determinant", keep_span=False)
    method(system, ("eliminate_variable",), "poly.eliminate", after=_eliminated)
    method(system, ("propagated_bounds",), "poly.propagated_bounds")
    method(system, ("coordinate_bounds",), "poly.coordinate_bounds")
    method(system, ("restrict_to_subspace",), "poly.restrict")
    method(system, ("substitute_affine",), "poly.substitute")
    method(system, ("contains",), "poly.contains")
    method(system, ("enumerate_lattice_points",), "poly.enumerate", after=_enumerated)
    function(lift, "facet_inequality_from_simplex", "lift.facet_inequality")
    function(lift, "check_upper_facet", "lift.check_facet")
    function(lift, "perturb_heights", "lift.perturb", after=_perturbed)
    function(cover, "enumerate_simplicial_upper_facets", "cover.enumerate_facets",
             after=_facets_found)
    function(cover, "build_full_cover", "cover.build_full_cover")
    function(construct, "pipeline_run", "construct.pipeline_run")
    function(construct, "composed_simplex_relaxation", "construct.composed")
    function(construct, "free_join_compose", "construct.free_join")
    function(construct, "simplex5_relaxation", "construct.simplex5")
    function(verify, "certify_mixed", "verify.certify_mixed", after=_verdict)
    function(verify, "box_check", "verify.box_check")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(names, totals: dict, cycles: int) -> dict[str, float]:
    """Each named per-layer metric from a traced run's totals, per cycle of jobs.

    Counts and times are totals over the run divided by the number of
    cycles; ratios, rates, bits and the median import time are not.
    `trace.*` metrics are left to the caller.
    """
    calls, ns, self_ns, counters = (totals["calls"], totals["ns"], totals["self_ns"],
                                    totals["counters"])
    seconds = {name: value / 1e9 for name, value in ns.items()}
    bits = {int(degree): value for degree, value in totals["bits"].items()}
    out = {}
    for metric in names:
        prefix, _, last = metric.rpartition(".")
        if metric.startswith("trace."):
            continue
        if prefix == "field.bits_max":
            value = bits.get(int(last[1:]), 0)
        elif metric == "cli.import_s":
            value = statistics.median(totals["import_s"]) if totals["import_s"] else 0.0
        elif metric == "poly.enumerate.points_per_s":
            elapsed = seconds.get("poly.enumerate", 0.0)
            value = counters.get("poly.enumerate.box_points", 0) / elapsed if elapsed else 0.0
        elif metric == "cover.enumerate_facets.found_ratio":
            tried = counters.get("cover.enumerate_facets.candidates", 0)
            value = counters.get("cover.enumerate_facets.found", 0) / tried if tried else 0.0
        elif last == "calls":
            value = calls.get(prefix, 0) / cycles
        elif last == "s":
            value = seconds.get(prefix, 0.0) / cycles
        elif last == "self_s":
            value = self_ns.get(prefix, 0) / 1e9 / cycles
        else:
            value = counters.get(metric, 0) / cycles
        out[metric] = value
    return out
