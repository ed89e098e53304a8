"""Span tracing of the seriesdiff layers, installed from the benchmark only.

Each public function a verb spends time in is replaced, while a traced
iteration runs, by a wrapper that records a span (name, id, parent id, start,
end) and the counts of work done at the same boundary.  The wrapper goes
where the caller looks the function up: ``samplers`` imported
``predict_eps``, ``antv_step`` and ``bp_grad_step`` by name, so those are
patched on ``samplers``; the CLI calls everything else through its module.
Nothing under ``src/`` is changed, and untraced iterations run unpatched code.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index: int, name: str):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}


def _patch_table(dataio, evaluate, samplers, scorenet) -> list[tuple]:
    """(module, attribute, span name, counts of one call or None)."""
    return [
        (dataio, "read_close_csv", "dataio.read_close_csv",
         lambda a, k, r: {"rows": sum(len(rec) for rec in r)}),
        (dataio, "prepare_windows", "dataio.prepare_windows",
         lambda a, k, r: {
             "windows": len(r[0]),
             "records": r[1]["n_records"],
             "records_windowed": r[1]["n_records"] - r[1]["n_skipped_records"],
         }),
        (dataio, "write_window_store", "dataio.write_window_store", _file_bytes(1, "path")),
        (dataio, "read_window_store", "dataio.read_window_store",
         lambda a, k, r: {"windows": len(r)}),
        (scorenet, "train", "scorenet.train", None),
        (scorenet, "dsm_loss", "scorenet.dsm_loss",
         lambda a, k, r: {"rows": len(_arg(a, k, 1, "windows"))}),
        (scorenet, "save_checkpoint", "scorenet.save_checkpoint", _file_bytes(1, "path")),
        (scorenet, "load_checkpoint", "scorenet.load_checkpoint", _file_bytes(0, "path")),
        (samplers, "sample_one", "samplers.sample_one", None),
        (samplers, "guided_eps", "samplers.guided_eps", None),
        (samplers, "predict_eps", "scorenet.predict_eps", None),
        (samplers, "antv_step", "regularizers.antv_step", None),
        (samplers, "bp_grad_step", "regularizers.bp_grad_step", None),
        (evaluate, "read_panel_csv", "evaluate.read_panel_csv",
         lambda a, k, r: {"rows": len(r.dates) * len(r.tickers)}),
        (evaluate, "topk_dropk_backtest", "evaluate.topk_dropk_backtest", None),
        (evaluate, "summarize_backtest", "evaluate.summarize_backtest", None),
    ]


class Tracer:
    """In-memory spans and counts for one traced iteration at a time.

    A span is (trace id, span id, parent id, name, start, end); its self time
    is its duration minus the time of its direct children.
    """

    def __init__(self) -> None:
        from seriesdiff import dataio, evaluate, samplers, scorenet

        self._table = _patch_table(dataio, evaluate, samplers, scorenet)
        self.trace_id = 0
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            took = end - start
            if self._stack:
                self._stack[-1][1] += took
            self.spans.append((self.trace_id, span_id, parent, name, start, end))
            self.calls[name] += 1
            self.busy[name] += took
            self.self_time[name] += took - frame[1]

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = []
        try:
            for module, attr, name, count in self._table:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "s": self.busy[name], "self_s": self.self_time[name]}
                for name in self.calls
            },
            "counts": dict(self.counts),
        }

    def append_spans(self, path) -> None:
        keys = ("trace", "id", "parent", "name", "start", "end")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
