"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: the public functions and
methods of ccmatrix are wrapped in place for the length of the traced
run and restored afterwards. Each span keeps (name, start, end, parent).
A span's self time is its duration minus the durations of its child
spans. Generator functions are never wrapped, because a span around one
would close before any work is done; their work lands in the span of the
call that drains them. ``BitBuffer.read_field``/``write_field`` run
millions of times per pass, so they are counted rather than spanned.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

from ccmatrix import bitstream, cli, cmatrix, container, efficiency, experiments, genmat, sm, vlb
from ccmatrix import _dense

# (metric prefix, owner, attribute). Module-level functions are replaced at
# every binding site, e.g. experiments.sample_bitlens as well as
# genmat.sample_bitlens; methods are replaced on their class.
SPANS = [
    ("cli.parse_text_matrix", cli, "parse_text_matrix"),
    ("cli.format_text_matrix", cli, "format_text_matrix"),
    ("dense.dense_to_flat", _dense, "dense_to_flat"),
    ("dense.flat_to_dense", _dense, "flat_to_dense"),
    ("bitstream.to_bytes", bitstream.BitBuffer, "to_bytes"),
    ("bitstream.from_bytes", bitstream.BitBuffer, "from_bytes"),
    ("sm.compress", sm.SmMatrix, "compress"),
    ("sm.from_values", sm.SmMatrix, "from_values"),
    ("sm.decompress", sm.SmMatrix, "decompress"),
    ("sm.get", sm.SmMatrix, "get"),
    ("sm.set", sm.SmMatrix, "set"),
    ("vlb.compress", vlb.VlbMatrix, "compress"),
    ("vlb.from_buffer", vlb.VlbMatrix, "from_buffer"),
    ("vlb.decompress", vlb.VlbMatrix, "decompress"),
    ("vlb.get", vlb.VlbMatrix, "get"),
    ("cmatrix.get", cmatrix.CompressedMatrix, "get"),
    ("cmatrix.add", cmatrix.CompressedMatrix, "add"),
    ("cmatrix.scalar_mul", cmatrix.CompressedMatrix, "scalar_mul"),
    ("cmatrix.equals", cmatrix.CompressedMatrix, "equals"),
    ("cmatrix.transpose", cmatrix.CompressedMatrix, "transpose"),
    ("cmatrix.matmul", cmatrix.CompressedMatrix, "matmul"),
    ("container.dump_bytes", container, "dump_bytes"),
    ("container.load_bytes", container, "load_bytes"),
    ("efficiency.measure", efficiency, "measure"),
    ("efficiency.eta1", efficiency, "eta1"),
    ("efficiency.eta2", efficiency, "eta2"),
    ("genmat.sample_bitlens", genmat, "sample_bitlens"),
    ("genmat.sample_matrix", genmat, "sample_matrix"),
    ("genmat.replicate_efficiency", genmat, "replicate_efficiency"),
    ("experiments.run_mixture_grid", experiments, "run_mixture_grid"),
    ("experiments.run_experiment", experiments, "run_experiment"),
    ("experiments.write_csv", experiments, "write_csv"),
]
COUNTERS = [
    ("bitstream.read_field", bitstream.BitBuffer, "read_field"),
    ("bitstream.write_field", bitstream.BitBuffer, "write_field"),
]
# Spans whose per-call self time is kept, for medians.
SAMPLED = {"sm.get", "sm.set", "vlb.get", "cmatrix.get"}
READS = 0  # index of the read_field count in Recorder.counts


class Recorder:
    """Collects spans and counters while installed; pause it around oracle work."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.self_ns = [0] * len(SPANS)
        self.calls = [0] * len(SPANS)
        self.reads_inside = [0] * len(SPANS)  # read_field calls made under each span
        self.samples = {self.names.index(n): array("q") for n in SAMPLED}
        self.counts = [0] * len(COUNTERS)
        self.enabled = True
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _span(self, nid: int, fn):
        rec = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack
            idx = len(rec.span_start)
            rec.span_name.append(nid)
            rec.span_parent.append(stack[-1][0] if stack else -1)
            start = clock()
            rec.span_start.append(start)
            rec.span_end.append(0)
            stack.append([idx, start, 0, rec.counts[READS]])
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _, _, child, reads = stack.pop()
                rec.span_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                rec.self_ns[nid] += dur - child
                rec.calls[nid] += 1
                rec.reads_inside[nid] += rec.counts[READS] - reads
                if nid in rec.samples:
                    rec.samples[nid].append(dur - child)

        return wrapper

    def _counter(self, cid: int, fn):
        rec = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if rec.enabled:
                counts[cid] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Stop recording, e.g. while the oracle reads results back."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        for nid, (_, owner, attr) in enumerate(SPANS):
            self._patch(owner, attr, lambda fn, nid=nid: self._span(nid, fn))
        for cid, (_, owner, attr) in enumerate(COUNTERS):
            self._patch(owner, attr, lambda fn, cid=cid: self._counter(cid, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            self._check(fn)
            new = make(fn)
            self._set(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
            return
        fn = getattr(owner, attr)
        self._check(fn)
        new = make(fn)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "ccmatrix" and not name.startswith("ccmatrix."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, new)

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    @staticmethod
    def _check(fn) -> None:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{fn.__qualname__} is a generator; trace the call that drains it")

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_ns": list(self.self_ns),
            "calls": list(self.calls),
            "reads_inside": list(self.reads_inside),
            "counts": list(self.counts),
        }

    def per_pass(self, setup: dict, passes: int) -> dict:
        """Totals for one set-up plus one pass, pass totals averaged over passes."""
        now = self.snapshot()
        return {
            key: [s + (n - s) / passes for s, n in zip(setup[key], now[key])]
            for key in now
        }

    def p50_ns(self, name: str) -> float:
        sample = self.samples[self.names.index(name)]
        return float(statistics.median(sample)) if sample else 0.0

    def save(self, path) -> int:
        """Write all spans as arrays; returns the span count."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
        return len(self.span_start)


def layer_metrics(rec: Recorder, totals: dict) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass."""
    out: dict[str, float] = {}
    for nid, name in enumerate(rec.names):
        out[f"{name}.self_s"] = totals["self_ns"][nid] / 1e9
        out[f"{name}.calls"] = totals["calls"][nid]
    for cid, (name, _, _) in enumerate(COUNTERS):
        out[f"{name}.calls"] = totals["counts"][cid]
    vget = rec.names.index("vlb.get")
    calls = totals["calls"][vget]
    out["vlb.get.read_fields_per_call"] = totals["reads_inside"][vget] / calls if calls else 0.0
    for name in SAMPLED:
        out[f"{name}.self_ns_p50"] = rec.p50_ns(name)
    return out
