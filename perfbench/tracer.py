"""Span tracer that times stereoloc's modules from outside.

Each traced function is replaced, for the life of a `Tracer.installed()`
block, by a wrapper bound at the module attribute its callers look it up
through (every caller uses `module.function` at call time, so rebinding the
attribute reaches them all). `Tape.record` is wrapped too: it counts tape
nodes and wraps each pullback in a span named after the primitive that
recorded it, which `backward` then runs as a child of its own span.

Spans are aggregated as they close: calls, total time, and self time (the
span's duration minus the time of its direct child spans). Exceptions are
counted per span by class name and re-raised unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from stereoloc import autodiff, estimator, features, harness, matching, storage, synth, training

# (module, function) pairs whose calls are spans. Names in reports are
# "<module>.<function>".
TRACED = {
    training: ("total_loss", "adam_step", "validate"),
    autodiff: ("backward", "conv2d", "upsample_bilinear", "bilinear_sample",
               "rigid_align", "softmax", "row_znorm", "matmul"),
    features: ("forward", "extract_keypoints"),
    matching: ("match_all",),
    estimator: ("ransac_pose", "align_core", "gt_outlier_gate"),
    synth: ("block_match_disparity", "render_stereo", "make_dataset"),
    harness: ("localize", "teach", "nearest_vertex", "save_map", "load_map"),
    storage: ("write_blob", "read_blob"),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # seconds
    self: float = 0.0  # seconds
    errors: Counter = field(default_factory=Counter)


class Tracer:
    """Per-span aggregates plus named counters, filled while installed."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child seconds of each open span

    def _timed(self, name: str, fn, observe=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[name].errors[type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = spans[name]
                s.calls += 1
                s.total += dt
                s.self += dt - children[0]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # observers: counts measured where the work happens

    def _ransac_observed(self, args, kwargs, result):
        _, mask = result
        self.counts["estimator.ransac_pose.offered"] += len(mask)
        self.counts["estimator.ransac_pose.inliers"] += int(mask.sum())

    def _write_observed(self, args, kwargs, result):
        self.counts["storage.write_blob.bytes"] += 4 * int(args[1].size)

    def _read_observed(self, args, kwargs, result):
        self.counts["storage.read_blob.bytes"] += 4 * int(result.size)

    def _loss_observed(self, args, kwargs, result):
        compute_grads = kwargs.get("compute_grads", args[4] if len(args) > 4 else True)
        if not compute_grads:
            return
        cfg = args[1].config
        for s in result[2]:
            self.counts["training.total_loss.samples"] += 1
            self.counts["training.total_loss.skipped"] += int(s.skipped)
            self.counts["training.total_loss.gated"] += s.n_gated
        h, w = args[0][0].source.left.shape
        self.counts["training.total_loss.matches"] += (
            len(result[2]) * (h // cfg.window) * (w // cfg.window)
        )

    def _record(self, orig):
        counts = self.counts

        def record(tape, value, parents, pullback):
            counts["autodiff.tape.nodes"] += 1
            if pullback is not None:
                primitive = sys._getframe(1).f_code.co_name
                pullback = self._timed(f"autodiff.pullback.{primitive}", pullback)
            return orig(tape, value, parents, pullback)

        return record

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        observers = {
            "estimator.ransac_pose": self._ransac_observed,
            "storage.write_blob": self._write_observed,
            "storage.read_blob": self._read_observed,
            "training.total_loss": self._loss_observed,
        }
        originals = []
        try:
            for module, names in TRACED.items():
                for attr in names:
                    fn = getattr(module, attr)  # a rename fails here, loudly
                    name = f"{_short(module)}.{attr}"
                    _refuse_by_value_copies(module, attr, fn)
                    setattr(module, attr, self._timed(name, fn, observers.get(name)))
                    originals.append((module, attr, fn))
            record = autodiff.Tape.record
            autodiff.Tape.record = self._record(record)
            originals.append((autodiff.Tape, "record", record))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def _refuse_by_value_copies(owner, attr: str, fn) -> None:
    """A module holding its own reference to a traced function (a
    `from x import f`) would bypass the wrapper, silently zeroing a layer."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not mod_name.startswith("stereoloc"):
            continue
        for global_name, value in vars(mod).items():
            if value is fn:
                raise RuntimeError(
                    f"{mod_name}.{global_name} holds {_short(owner)}.{attr} by value; "
                    "its calls would escape the tracer"
                )
