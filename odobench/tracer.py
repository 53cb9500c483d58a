"""In-memory span tracing around the program's layer entry points.

The tracer rebinds module attributes of the ``stereovo`` package to thin
wrappers; nothing inside the package changes. Because the package
imports functions by name (``from .selector import select``), a wrapped
function is rebound in every ``stereovo`` module that holds the same
object, so calls through any of those names are seen. A class (such as
``FramePairProblem``) keeps its binding in the module that defines it.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index
of the enclosing span or -1, ``count`` an optional number taken from the
return value (keypoints selected, pairs built, LM iterations).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, count taken from the return value)
ENTRY_POINTS = (
    ("stereovo.frontend", "generate_sequence", "frontend.generate_sequence", None),
    ("stereovo.frontend", "write_observations", "frontend.write_observations", None),
    ("stereovo.frontend", "ingest_observations", "frontend.ingest_observations", None),
    ("stereovo.pipeline", "run", "pipeline.run", lambda r: len(r.diagnostics)),
    ("stereovo.pipeline", "select", "selector.select", len),
    ("stereovo.pipeline", "build_matched_pairs", "pipeline.build_matched_pairs", len),
    ("stereovo.pipeline", "FramePairProblem", "optimizer.problem", None),
    ("stereovo.pipeline", "solve_pose", "optimizer.solve_pose", lambda s: s.iterations),
    ("stereovo.pipeline", "project_covariance", "uncertainty.project_covariance", None),
    ("stereovo.pipeline", "correct_depth_uncertainty", "uncertainty.correct_depth_uncertainty", None),
    ("stereovo.pipeline", "transform_landmark", "geometry.transform_landmark", None),
    ("stereovo.pipeline", "write_run_outputs", "evaluation.write_run_outputs", None),
    ("stereovo.pipeline", "write_ablation_csv", "evaluation.write_ablation_csv", None),
    ("stereovo.evaluation", "t_rel", "evaluation.t_rel", None),
    ("stereovo.evaluation", "r_rel", "evaluation.r_rel", None),
    ("stereovo.evaluation", "per_frame_errors", "evaluation.per_frame_errors", None),
)


def rebind(target, replacement) -> list[tuple[object, str, object]]:
    """Point every ``stereovo`` module attribute holding ``target`` at
    ``replacement``; return (module, attribute, original) for undoing.

    A class stays bound in its defining module, where the name may be
    used as a type.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stereovo" or mod_name.startswith("stereovo.")):
            continue
        if isinstance(target, type) and mod_name == target.__module__:
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, target))
    return undo


def restore(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Collects spans while installed; ``install`` and ``uninstall`` may
    alternate, so untraced and traced work can share one process."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            return
        self.absent = []
        for mod_name, attr, name, count in self.entry_points:
            try:
                fn = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._undo += rebind(fn, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def write(self, path) -> None:
        """Gzipped JSON: the field names and the span list."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"], "spans": self.spans}, fh)


def self_times(spans, first: int = 0) -> dict[str, float]:
    """Seconds per span name, minus the time its child spans cover."""
    own = defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        own[name] += end - start
        if parent >= first:
            own[spans[parent][0]] -= end - start
    return dict(own)
