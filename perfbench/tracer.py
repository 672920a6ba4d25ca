"""Span tracer that wraps the names callers bind in their own modules.

`spinqpe.qpe` calls `apply_controlled` through its own module namespace,
so the tracer replaces that binding (and the one in `spinqpe.iqft`, and so
on) with a wrapper that records a span and passes arguments and return
values through untouched. A target whose module or attribute no longer
exists, for example a gate loop a later engine removed, is reported as
absent with zero calls instead of failing the run.

Spans live in flat in-memory arrays (name, parent, request, start, end)
and are written out once, at the end of the run. A span's self time is its
duration minus the time its child spans cover; spans are recorded from a
single thread, so children of one parent never overlap and their
durations simply add.
"""

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: bytes a gate call reads and writes: in and out complex128 amplitudes
GATE_BYTES_PER_AMPLITUDE = 2 * 16

LAYERS = ("statevector", "gates", "iqft", "qpe", "precession",
          "extraction", "records", "angles", "cli")


def _gate_bytes(tracer, args, result):
    tracer.counts["statevector.bytes_computed"] += (
        GATE_BYTES_PER_AMPLITUDE << args[0].num_qubits)


def _hist_entries(tracer, args, result):
    tracer.counts["statevector.hist_entries"] += len(result.entries)


def _plan_ops(tracer, args, result):
    # one PlanStep per op, so a swap counts once
    tracer.counts["iqft.plan_ops"] += len(result.ops)


def _coverage(tracer, args, result):
    # a Histogram's total mass is 1 by construction in both modes, so the
    # decoded window mass is the useful share of everything measured
    tracer.coverage_min = min(tracer.coverage_min, result.coverage)


def _warnings(tracer, args, result):
    tracer.counts["extraction.warnings"] += len(result.warnings)


def _bytes_out(tracer, args, result):
    tracer.counts["records.bytes_out"] += len(result.encode())


_STATEVECTOR = [
    ("apply_single", "statevector.apply_single", _gate_bytes),
    ("apply_controlled", "statevector.apply_controlled", _gate_bytes),
]
_SERIALIZE = [(name, "records.serialize", _bytes_out)
              for name in ("to_json", "to_csv", "sweep_csv")]

#: module -> [(attribute, span name, hook)]; a hook sees (tracer, args,
#: result) after the span closed and only updates counters
TARGETS = {
    "spinqpe.qpe": _STATEVECTOR + [
        ("exact_histogram", "statevector.exact_histogram", _hist_entries),
        ("sample", "statevector.sample", _hist_entries),
        ("build_iqft", "iqft.build_iqft", _plan_ops),
        ("apply_iqft", "iqft.apply_iqft", None),
        ("hadamard", "gates", None),
        ("rotation_power", "gates", None),
    ],
    "spinqpe.iqft": _STATEVECTOR + [
        ("hadamard", "gates", None),
        ("pauli_x", "gates", None),
        ("phase", "gates", None),
    ],
    "spinqpe.extraction": [
        ("run_qpe", "qpe.run_qpe", None),
        ("decode", "qpe.decode", _coverage),
        ("rx", "gates", None),
        ("ry", "gates", None),
        ("total_phase", "precession", None),
        ("wrap_angle", "precession", None),
    ],
    "spinqpe.cli": _SERIALIZE + [
        ("main", "cli.main", None),
        ("full_pipeline", "extraction.full_pipeline", _warnings),
        ("run_qpe", "qpe.run_qpe", None),
        ("decode", "qpe.decode", _coverage),
        ("rx", "gates", None),
        ("ry", "gates", None),
        ("amplitudes_AB", "precession", None),
        ("amplitudes_CS", "precession", None),
        ("total_phase", "precession", None),
        ("parse_angle", "angles.parse_angle", None),
        ("histogram_payload", "records.payload", None),
        ("decode_payload", "records.payload", None),
        ("extraction_payloads", "records.payload", None),
    ],
}

_MISSING = object()


class Tracer:
    """Install with `install()`, set `request` before each request, and
    always `uninstall()`; `summary()` turns the spans into per-layer sums."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.coverage_min = float("inf")
        self.absent: list[str] = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, hook):
        name_id = self._name_id(name)
        layer = name.split(".")[0]
        stack = self._stack
        # bound once: this runs on every gate call
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_request, add_start = self.span_request.append, self.span_start.append
        ends, add_end = self.span_end, self.span_end.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ends)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_request(self.request)
            add_end(0.0)
            stack.append(span)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failures[layer] += 1
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, entries in self.targets.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            for attr, name, hook in entries:
                self._name_id(name)
                fn = getattr(module, attr, _MISSING)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """(total, self) seconds per span."""
        total = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=total[child],
                              minlength=len(total))
        return total, total - covered

    def summary(self) -> dict:
        """Per span name: calls, self_s and total_s summed over the run;
        every target name appears, with zeros when it never ran."""
        total, own = self.durations()
        name = np.frombuffer(self.span_name, dtype=np.int32)
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total_s = np.bincount(name, weights=total, minlength=size)
        self_s = np.bincount(name, weights=own, minlength=size)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                "total_s": float(total_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a compressed .npz (names indexed by `name`)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
