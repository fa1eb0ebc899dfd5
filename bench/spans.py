"""Wrappers around the library's public functions, installed from outside
the library, and the spans they record.

A function is patched in its defining module and in every ``hadlab`` module
that imported it under any name (``hadlab.scan.complement_polar``,
``hadlab.cli.run_scan``, the package namespace), so every call path goes
through the wrapper.  ``Patcher.undo`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

#: Attribute set on every wrapper, so leftovers can be found after undo.
MARK = "__bench_wrapper__"

#: Public functions on the served paths, by module.  Hot leaf helpers that run
#: once per emitted number (matcore.format_float) are left unwrapped: tracing
#: them would cost more than the work they do.
FUNCTION_TARGETS = {
    "scan": ("scan", "classify_split", "enumerate_splits"),
    "matcore": (
        "as_sign_matrix",
        "is_hadamard",
        "require_hadamard",
        "parse_sign_matrix",
        "matrix_digest",
        "json_dumps",
        "real_matrix_to_json",
    ),
    "numlin": ("svd", "polar", "is_psd", "max_abs"),
    "complement": (
        "xa_ya",
        "complement_polar",
        "gram_identities_check",
        "singular_value_complement_check",
        "det_complement_check",
    ),
    "ahp": ("verdict_from_polar", "ahp_check"),
    "bounds": ("bound_e_inf", "polar_gap"),
    "cli": ("main",),
}
#: PartitionedHadamard block reads, traced together as ``matcore.blocks``.
BLOCK_PROPERTIES = ("a", "b", "c", "d")
#: The numpy.linalg boundary under every module.
LINALG_TARGETS = ("svd", "eigh", "eigvalsh")
#: Spans that open a new split (or CLI call) id for everything beneath them.
UNIT_SPANS = frozenset({"scan.classify_split", "cli.main"})
#: Modules whose self time the report breaks down, in report order.
LAYERS = ("scan", "matcore", "numlin", "linalg", "complement", "ahp", "bounds", "cli")


def hadlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "hadlab" or name.startswith("hadlab.")]


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, defining_module, name: str, make_wrapper, importers=None) -> None:
        original = getattr(defining_module, name)
        wrapper = make_wrapper(original)
        setattr(wrapper, MARK, True)
        holders = [defining_module] + list(hadlab_modules() if importers is None else importers)
        seen = set()
        for holder in holders:
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, original))

    def prop(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        fget = make_wrapper(original.fget)
        setattr(fget, MARK, True)
        setattr(cls, name, property(fget, doc=original.__doc__))
        self._undo.append((cls, name, original))

    def undo(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of wrappers still installed anywhere a Patcher may have put one."""
    import numpy.linalg

    from hadlab.matcore import PartitionedHadamard

    found = []
    for holder in hadlab_modules() + [numpy.linalg]:
        for attr, value in vars(holder).items():
            if getattr(value, MARK, False):
                found.append(f"{holder.__name__}.{attr}")
    for attr in BLOCK_PROPERTIES:
        if getattr(PartitionedHadamard.__dict__[attr].fget, MARK, False):
            found.append(f"PartitionedHadamard.{attr}")
    return found


class SplitTimer:
    """Times each ``classify_split`` that ``scan()`` makes.

    This is the only wrapper in an untraced scan run: two clock reads and a
    list append per split, to give per-split latency, then ``tick()`` (the
    speed probe, when due).  Each sample is (seconds, end time, (category,
    applicable, closed-form U or None)).  It keeps those facts rather than
    the record, so the run does not hold thousands of live records that the
    garbage collector would have to walk.
    """

    def __init__(self, tick):
        self.samples: list[tuple] = []
        self._tick = tick
        self._patcher = Patcher()

    def __enter__(self):
        import importlib

        scan_module = importlib.import_module("hadlab.scan")

        def make(fn):
            perf = time.perf_counter
            samples = self.samples
            tick = self._tick

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf()
                record = fn(*args, **kwargs)
                done = perf()
                u = record.factors.u if record.factors is not None else None
                samples.append((done - t0, done, (record.category, record.applicable, u)))
                tick()
                return record

            return timed

        self._patcher.function(scan_module, "classify_split", make, importers=[])
        return self

    def __exit__(self, *exc):
        self._patcher.undo()

    def drain(self) -> list[tuple]:
        out, self.samples[:] = list(self.samples), []
        return out


class Tracer:
    """In-memory spans: name, start, end, parent span and split/call id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.unit = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._unit = -1
        self._next_unit = 0
        self._patcher = Patcher()

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, new_unit: bool) -> tuple[int, int]:
        prev_unit = self._unit
        if new_unit:
            self._unit = self._next_unit
            self._next_unit += 1
        idx = len(self.start)
        self.name.append(name_id)
        self.unit.append(self._unit)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx, prev_unit

    def _close(self, idx: int, prev_unit: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._unit = prev_unit

    def wrapper(self, span: str, after=None):
        """Decorator factory: a span around every call, and ``after(args,
        result)`` once the span has closed."""
        name_id = self._name_id(span)
        layer = span.split(".", 1)[0]
        new_unit = span in UNIT_SPANS
        errors = self.errors

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx, prev = self._open(name_id, new_unit)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    self._close(idx, prev)
                if after is not None:
                    after(args, result)
                return result

            return traced

        return make

    def generator_wrapper(self, span: str):
        """Decorator factory for a generator function: one span per item
        produced, covering the generator's own work for that item."""
        name_id = self._name_id(span)
        layer = span.split(".", 1)[0]

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def items():
                    while True:
                        idx, prev = self._open(name_id, False)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException:
                            self.errors[layer] += 1
                            raise
                        finally:
                            self._close(idx, prev)
                        yield item

                return items()

            return traced

        return make

    def install(self) -> None:
        import importlib

        import numpy.linalg

        from hadlab.matcore import PartitionedHadamard

        def count_bytes(args, result):
            self.counters["matcore.json_dumps.bytes"] += len(result)

        def count_work(args, result):
            shape = getattr(args[0], "shape", ())
            if len(shape) >= 2:
                m, n = shape[-2], shape[-1]
                batch = 1
                for extent in shape[:-2]:
                    batch *= extent
                self.counters["linalg.work_computed"] += batch * m * n * min(m, n)

        try:
            for layer, names in FUNCTION_TARGETS.items():
                module = importlib.import_module(f"hadlab.{layer}")
                for name in names:
                    span = f"{layer}.{name}"
                    if name == "enumerate_splits":
                        make = self.generator_wrapper(span)
                    else:
                        make = self.wrapper(span, count_bytes if span == "matcore.json_dumps" else None)
                    self._patcher.function(module, name, make)
            for name in BLOCK_PROPERTIES:
                self._patcher.prop(PartitionedHadamard, name, self.wrapper("matcore.blocks"))
            for name in LINALG_TARGETS:
                self._patcher.function(
                    numpy.linalg, name, self.wrapper(f"linalg.{name}", count_work), importers=[]
                )
        except BaseException:
            self._patcher.undo()
            raise

    def uninstall(self) -> None:
        self._patcher.undo()

    def write(self, path) -> None:
        """Write every span as one text line: name, unit, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("# name_id unit parent start_s end_s\n")
            for row in zip(self.name, self.unit, self.parent, self.start, self.end):
                fh.write("%d %d %d %.9f %.9f\n" % row)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[idx], ends[idx]))
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        cursor = lo
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, cursor), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds and self seconds; per layer: self
    seconds; plus the root total the self times must add up to."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    by_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names}
    root_total = 0.0
    for idx, name_id in enumerate(tracer.name):
        entry = by_name[tracer.names[name_id]]
        entry["calls"] += 1
        entry["total_s"] += tracer.end[idx] - tracer.start[idx]
        entry["self_s"] += selfs[idx]
        if tracer.parent[idx] < 0:
            root_total += tracer.end[idx] - tracer.start[idx]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    return {
        "spans": by_name,
        "layer_self_s": layer_self,
        "root_total_s": root_total,
        "self_total_s": sum(selfs),
    }
