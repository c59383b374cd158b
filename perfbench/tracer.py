"""Outside-in tracer: spans around singradar's public functions.

Nothing inside singradar knows about tracing. While a tracer is active it
replaces each function named in LAYERS, at every module attribute bound to
that function object, with a wrapper that records one span: name, start,
end, parent span, job id, whether the call raised, and one integer of
layer-specific work (Newton iterations, circle samples, transform points).
The ExtReal/ExtComplex operator methods are counted, not spanned, because a
span per double-double operation would cost more than the operation.
Leaving the context restores every original binding.

Spans stay in flat in-memory columns until the run writes them out.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "singradar"

# (module, attribute path) of every spanned function; the span is named
# "<module>.<last attribute>". `series` is left out on purpose: it only
# builds TruncatedSeries containers and costs nothing measurable.
LAYERS = (
    ("scalars", "root_of_unity"),
    ("polysys", "evaluate"),
    ("polysys", "jacobian"),
    ("tracker", "newton_correct"),
    ("tracker", "PathState.from_point"),
    ("tracker", "track_to"),
    ("fourier", "sample_circle"),
    ("fourier", "inverse_dft"),
    ("fourier", "direct_inverse_dft"),
    ("fourier", "taylor_coefficients"),
    ("radar", "detect_last_pole"),
    ("radar", "recondition"),
    ("radar", "fabry_estimate"),
    ("radar", "richardson"),
    ("monomial", "solve_binomial"),
    ("cli", "cmd_radius"),
    ("cli", "cmd_table"),
)

EXT_CLASSES = ("ExtReal", "ExtComplex")
EXT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__pow__", "__abs__")


class LayerMissing(LookupError):
    """A function or class the layer table names no longer exists."""


def _iterations(args, result):
    return result.newton_iterations


def _circle_points(args, result):
    return result.n


def _input_points(args, result):
    return len(args[0])


# layer-specific work recorded in a span's info column
_INFO = {
    "tracker.newton_correct": _iterations,
    "fourier.sample_circle": _circle_points,
    "fourier.inverse_dft": _input_points,
    "fourier.direct_inverse_dft": _input_points,
}


def _resolve(module: str, path: str):
    mod = sys.modules.get("%s.%s" % (PACKAGE, module))
    if mod is None:
        raise LayerMissing("module %s.%s is not imported" % (PACKAGE, module))
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LayerMissing("%s.%s.%s no longer exists"
                               % (PACKAGE, module, path))
    if parts[-1] not in vars(owner):
        raise LayerMissing("%s.%s.%s no longer exists"
                           % (PACKAGE, module, path))
    return owner, parts[-1]


class Tracer:
    """Span recorder; `active()` installs it, `job()` scopes one job."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("H")
        self.parent_col = array("l")
        self.job_col = array("l")
        self.start_col = array("d")
        self.end_col = array("d")
        self.failed_col = array("b")
        self.info_col = array("q")
        self.ext_ops = 0
        self._stack = [-1]
        self._job = -1
        # checked at construction so a refactor fails before any job runs
        self._targets = [(_resolve(m, p), "%s.%s" % (m, p.split(".")[-1]))
                         for m, p in LAYERS]
        scalars = sys.modules["%s.scalars" % PACKAGE]
        self._ext_targets = []
        for cls_name in EXT_CLASSES:
            cls = getattr(scalars, cls_name, None)
            if cls is None:
                raise LayerMissing("%s.scalars.%s no longer exists"
                                   % (PACKAGE, cls_name))
            for op in EXT_OPERATORS:
                if op not in vars(cls):
                    raise LayerMissing("%s.scalars.%s.%s no longer exists"
                                       % (PACKAGE, cls_name, op))
                self._ext_targets.append((cls, op))

    def __len__(self):
        return len(self.name_col)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1])
        self.job_col.append(self._job)
        self.end_col.append(0.0)
        self.failed_col.append(0)
        self.info_col.append(0)
        self._stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end_col[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_id(name)
        info = _INFO.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.failed_col[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if info is not None:
                tracer.info_col[idx] = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _bindings(self, fn):
        """Every (module, attribute) of the package bound to fn."""
        out = []
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(prefix)):
                continue
            for attr, value in vars(mod).items():
                if value is fn:
                    out.append((mod, attr))
        return out

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        counter = itertools.count()
        try:
            for (owner, attr), name in self._targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(
                        self._span_wrapper(name, raw.__func__)))
                    continue
                wrapper = self._span_wrapper(name, raw)
                for mod, mod_attr in self._bindings(raw):
                    saved.append((mod, mod_attr, raw))
                    setattr(mod, mod_attr, wrapper)
            for cls, op in self._ext_targets:
                raw = vars(cls)[op]
                saved.append((cls, op, raw))
                setattr(cls, op, _counting(raw, counter.__next__))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.ext_ops += next(counter)

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        idx = self._open(self._name_id("job." + kind))
        try:
            yield
        except Exception:
            self.failed_col[idx] = 1
            raise
        finally:
            self._close(idx)
            self._job = -1

    def write(self, path):
        """Spans as gzip CSV: name,start,end,parent,job,failed,info."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("name,start,end,parent,job,failed,info\n")
            for i in range(len(self.name_col)):
                fp.write("%s,%.9f,%.9f,%d,%d,%d,%d\n" % (
                    self.names[self.name_col[i]], self.start_col[i],
                    self.end_col[i], self.parent_col[i], self.job_col[i],
                    self.failed_col[i], self.info_col[i]))


def _counting(fn, tick):
    def op(*args):
        tick()
        return fn(*args)
    return op


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_FIELDS = {"calls": (0, "count"), "self_s": (1, "s"), "incl_s": (2, "s"),
           "failed": (3, "count"), "iterations": (4, "count"),
           "samples": (4, "count"), "points": (4, "count")}
# span-derived metrics "<span name>.<field>": the per-layer metrics of
# BENCHMARK.json whose last part is a field above; iterations, samples and
# points all sum the span's info column. The others are derived below.
SPAN_METRICS = tuple(
    m["name"] for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text(encoding="utf-8"))["per_layer"]
    if m["name"].rsplit(".", 1)[1] in _FIELDS)


def _durations(tracer: Tracer):
    """(duration, self time) of every span, and the total job time.

    Self time is the duration minus that of the child spans, which nest
    without overlap because the benchmark runs one thread."""
    n = len(tracer)
    dur = [tracer.end_col[i] - tracer.start_col[i] for i in range(n)]
    own = list(dur)
    job_time = 0.0
    for i in range(n):
        p = tracer.parent_col[i]
        if p >= 0:
            own[p] -= dur[i]
        else:
            job_time += dur[i]
    return dur, own, job_time


def _under(tracer: Tracer, name: str) -> bytearray:
    """For each span, whether some ancestor is named `name`.

    Parents are recorded before their children, so one forward pass works.
    """
    target = tracer._name_ids.get(name, -1)
    names, parents = tracer.name_col, tracer.parent_col
    out = bytearray(len(names))
    for i in range(len(names)):
        p = parents[i]
        if p >= 0 and (names[p] == target or out[p]):
            out[i] = 1
    return out


def layer_metrics(tracer: Tracer, cycles: int, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}. Counts and times are
    totals over the traced passes divided by their number, so they are per
    pass through the workload's job list."""
    dur, own, job_time = _durations(tracer)
    stats = {}
    for i in range(len(tracer)):
        s = stats.setdefault(tracer.names[tracer.name_col[i]],
                             [0, 0.0, 0.0, 0, 0])
        s[0] += 1
        s[1] += own[i]
        s[2] += dur[i]
        s[3] += tracer.failed_col[i]
        s[4] += tracer.info_col[i]

    def total(span: str, field: str):
        return stats.get(span, [0, 0.0, 0.0, 0, 0])[_FIELDS[field][0]]

    m = {"scalars.ext_ops": (tracer.ext_ops / cycles, "count")}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        m[metric] = (total(span, field) / cycles, _FIELDS[field][1])

    # checkpoints are the sweep's taylor_coefficients calls, retries the
    # ones that raised; newton_per_sample counts corrections in the walk
    under_circle = _under(tracer, "fourier.sample_circle")
    under_sweep = _under(tracer, "radar.detect_last_pole")
    newton_id = tracer._name_ids.get("tracker.newton_correct", -1)
    taylor_id = tracer._name_ids.get("fourier.taylor_coefficients", -1)
    newton_in_circle = checkpoints = retries = 0
    for i in range(len(tracer)):
        nid = tracer.name_col[i]
        if nid == newton_id and under_circle[i]:
            newton_in_circle += 1
        elif nid == taylor_id and under_sweep[i]:
            checkpoints += 1
            retries += tracer.failed_col[i]
    m["radar.detect_last_pole.checkpoints"] = (checkpoints / cycles, "count")
    m["radar.detect_last_pole.retries"] = (retries / cycles, "count")
    samples = total("fourier.sample_circle", "samples")
    m["fourier.newton_per_sample"] = (
        newton_in_circle / samples if samples else 0.0, "ratio")
    # the transforms' twiddles are root_of_unity spans, so the transforms'
    # share of job time is taken inclusive of their children
    transforms = (total("fourier.inverse_dft", "incl_s")
                  + total("fourier.direct_inverse_dft", "incl_s"))
    m["fourier.transforms.incl_frac"] = (
        transforms / job_time if job_time else 0.0, "ratio")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m


def self_time_shares(tracer: Tracer) -> list:
    """(span name, share of all job time spent in its own body), largest
    first; job root spans stand for the benchmark's own and unspanned code."""
    _, own, job_time = _durations(tracer)
    by_name = {}
    for i in range(len(tracer)):
        name = tracer.names[tracer.name_col[i]]
        by_name[name] = by_name.get(name, 0.0) + own[i]
    if not job_time:
        return []
    return sorted(((k, v / job_time) for k, v in by_name.items()),
                  key=lambda kv: -kv[1])
