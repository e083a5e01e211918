"""Span recorder for the traced run.

Wraps the public functions of each qdssim layer module, and the public
methods of the classes those modules define, in every namespace that
binds them (``adversary.verify`` as well as ``protocol.verify``, the
package's re-exports, class attributes such as
``ExperimentConfig.protocol_params``). Each call records a span: name,
start, end, parent span and run id, kept in compact arrays in memory and
written out once the run ends. A span's self time is its duration minus
the time covered by its child spans.

``optics`` gets no span of its own: the program reaches it only through
``detection`` and ``config``, so its time shows in their self time. In
``cli`` only ``main`` is wrapped; the ``cmd_*`` functions are its
dispatch targets, so their inline work (such as ``cmd_simulate``'s
per-phase pooling) is ``cli.main``'s self time.
"""

from __future__ import annotations

import inspect
import os
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "protocol", "adversary", "security", "discrimination", "detection")


class _DistributeProbe:
    """Peak traced memory of each distribute call, and the useful-record ratio.

    The useful-record ratio is the share of stored elements with any
    elimination or null click, computed from the views distribute returns.
    """

    def __init__(self):
        self.peak_bytes_per_element = []
        self.stored = 0
        self.clicked = 0

    def enter(self, args, kwargs):
        tracemalloc.start()

    def exit(self, args, kwargs, result):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if result is None:
            return
        elements = sum(len(key) for key in result.keys.values())
        if elements:
            self.peak_bytes_per_element.append(peak / elements)
        views = list(result.bob.values()) + list(result.charlie.values())
        for v in views:
            self.stored += len(v.null_clicks)
            self.clicked += int((v.eliminations.any(axis=1) | v.null_clicks).sum())


class _WriteProbe:
    """Bytes each write_transcript call leaves on disk, and the elements it stores."""

    def __init__(self):
        self.bytes = 0
        self.elements = 0

    def enter(self, args, kwargs):
        return None

    def exit(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        view = args[2] if len(args) > 2 else kwargs["view"]
        self.bytes += os.path.getsize(path)
        self.elements += len(view.null_clicks)


class SpanRecorder:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.distribute = _DistributeProbe()
        self.write = _WriteProbe()
        self._probes = {"protocol.distribute": self.distribute, "protocol.write_transcript": self.write}

    # ------------------------------------------------------------ wrapping

    def _wrap(self, label: str, fn):
        nid = self._label_ids.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        probe = self._probes.get(label)
        rec = self
        stack = self._stack
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, child = self.start, self.end, self.child

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            runs.append(rec.run_id)
            ends.append(0.0)
            child.append(0.0)
            hidden = 0.0
            if probe is not None:
                h0 = perf_counter()
                probe.enter(args, kwargs)
                hidden = perf_counter() - h0
            stack.append(idx)
            result = None
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                if probe is not None:
                    h0 = perf_counter()
                    probe.exit(args, kwargs, result)
                    hidden += perf_counter() - h0
                if parent >= 0:
                    # probe work is the benchmark's, not the parent layer's
                    child[parent] += (t1 - t0) + hidden

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, qdssim) -> list[str]:
        """Wrap every target in every namespace that binds it; return the labels."""
        namespaces = [m for n, m in sys.modules.items() if n == "qdssim" or n.startswith("qdssim.")]
        labels = []
        for label, owner, attr, fn in list(_targets(qdssim)):
            wrapper = self._wrap(label, fn)
            labels.append(label)
            if owner is not None:
                self._patch(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, name, wrapper)
        return labels

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def summary(self) -> dict[str, dict]:
        """Per label: calls, total seconds and self seconds."""
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.labels}
        for nid, t0, t1, c in zip(self.name, self.start, self.end, self.child):
            s = out[self.labels[nid]]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - c
        return out

    def durations(self, label: str) -> list[float]:
        nid = self._label_ids.get(label)
        return [t1 - t0 for n, t0, t1 in zip(self.name, self.start, self.end) if n == nid]

    def dump(self, path):
        """Write every span (name id, start, end, parent, run id) and the label table."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


def _targets(qdssim):
    """(label, owner class or None, attribute, function) for every wrapped callable."""
    for short in LAYERS:
        mod = getattr(qdssim, short)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if short != "cli" or name == "main":
                    yield f"{short}.{name}", None, name, obj
            elif inspect.isclass(obj) and short != "cli":
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        yield f"{short}.{obj.__name__}.{mname}", obj, mname, meth
