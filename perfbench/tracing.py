"""Span tracing from outside the library.

A traced run replaces selected public names with wrappers in the module
that *calls* them (``isacopt.alternating.solve_relaxed`` is the name the
alternating loop looks up at call time), records one span per call and
puts every original back afterwards.  Spans stay in memory as tuples
``(name, start, end, parent, trial)`` and are written out once the run
ends.  ``parent`` is the index of the enclosing span, or -1.

Span names are ``<layer>.<function>``; the layer is the library module
whose work the call does, which for a name imported across modules is the
defining module (``objective.weighted_snr`` as called from ``irs``).
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("scene", "objective", "precoder", "irs", "alternating")

# (calling module, attribute, span name).  A target missing from the
# library is skipped, so a later refactor that deletes or renames a
# function makes its metrics read zero instead of breaking the benchmark.
TARGETS = (
    ("isacopt.scene", "make_channels", "scene.make_channels"),
    ("isacopt.alternating", "run_alternating", "alternating.run_alternating"),
    ("isacopt.alternating", "default_beampattern_target",
     "precoder.default_beampattern_target"),
    ("isacopt.alternating", "build_omega", "objective.build_omega"),
    ("isacopt.alternating", "solve_relaxed", "precoder.solve_relaxed"),
    ("isacopt.alternating", "factor_precoder", "precoder.factor_precoder"),
    ("isacopt.alternating", "precoder_objective", "precoder.precoder_objective"),
    ("isacopt.alternating", "relaxed_objective", "precoder.relaxed_objective"),
    ("isacopt.alternating", "solve_irs_minorization", "irs.solve_irs_minorization"),
    ("isacopt.alternating", "snr_radar", "objective.snr_radar"),
    ("isacopt.alternating", "snr_comm", "objective.snr_comm"),
    ("isacopt.precoder", "dykstra_project", "precoder.dykstra_project"),
    ("isacopt.precoder", "solve_unit_diag_relaxation",
     "precoder.solve_unit_diag_relaxation"),
    ("isacopt.precoder", "approximation_ratio_study",
     "precoder.approximation_ratio_study"),
    ("isacopt.irs", "build_quadratic_terms", "irs.build_quadratic_terms"),
    ("isacopt.irs", "build_quartic_surrogate", "irs.build_quartic_surrogate"),
    ("isacopt.irs", "quartic_kernels", "irs.quartic_kernels"),
    ("isacopt.irs", "ascent_anchor", "irs.ascent_anchor"),
    ("isacopt.irs", "linear_surrogate_vectors", "irs.linear_surrogate_vectors"),
    ("isacopt.irs", "irs_phase_update", "irs.irs_phase_update"),
    ("isacopt.irs", "weighted_snr", "objective.weighted_snr"),
)

# Hot helpers that are only counted, per enclosing span name, without a
# span of their own: a span per Dykstra step or random draw would cost more
# than the work it times.  Their time stays in the enclosing span.
COUNTED = (
    ("isacopt.precoder", "project_spectrahedron", "precoder.project_spectrahedron"),
    ("isacopt.precoder", "project_ball", "precoder.project_ball"),
    ("isacopt.precoder", "project_psd", "precoder.project_psd"),
    ("isacopt.precoder", "complex_normal", "precoder.complex_normal"),
)


def _ball_moved(args, result) -> bool:
    return result is not args[0]


def _anchor_active(args, result) -> bool:
    return result > 0.0


def _inner_iterations(args, result) -> int:
    return len(result[1].objectives) - 1


# Per-call observations summed into Tracer.notes under the span name.
NOTES = {
    "precoder.project_ball": _ball_moved,
    "irs.ascent_anchor": _anchor_active,
    "irs.solve_irs_minorization": _inner_iterations,
}


class Tracer:
    """Installs span-recording wrappers and restores the originals.

    ``counts[(name, parent)]`` counts the calls of each COUNTED helper by
    the name of the span it ran in; ``notes[name]`` sums the NOTES
    observation of each call.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.notes: dict[str, float] = defaultdict(float)
        self.trial = -1
        self._stack: list[tuple[int, str]] = []   # open spans (index, name)
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for table, make in ((TARGETS, self.wrap), (COUNTED, self._count)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is not None:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trial)
            if note is not None:
                notes[name] += note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name: str):
        stack, counts, notes = self._stack, self.counts, self.notes
        note = NOTES.get(name)

        def counted(*args, **kwargs):
            counts[(name, stack[-1][1] if stack else "")] += 1
            result = fn(*args, **kwargs)
            if note is not None:
                notes[name] += note(args, result)
            return result

        counted.__wrapped__ = fn
        return counted


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def totals(spans: list[tuple]) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and inclusive seconds per span name."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        calls[name] += 1
        seconds[name] += end - start
    return calls, seconds


def layer_self_times(spans: list[tuple], selfs: list[float]) -> dict[str, float]:
    """Self seconds per layer over the spans recorded inside trials."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _, trial), self_s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        if trial >= 0 and layer in out:
            out[layer] += self_s
    return out


def write_spans(spans: list[tuple], path: Path) -> None:
    """Write spans as gzipped CSV, times relative to the first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "name", "start_s", "end_s", "parent", "trial"])
        for index, (name, start, end, parent, trial) in enumerate(spans):
            writer.writerow([index, name, f"{start - t0:.9f}",
                             f"{end - t0:.9f}", parent, trial])
