"""Spans recorded around the program's public calls, from outside it.

:func:`install` replaces, for the life of the process, ``CompiledModel.run``,
the operand/engine names ``repro.nn.session`` imports, and optionally the
server's ``functional_run_digest`` with wrappers that time each call.
Spans stay in memory (:class:`SpanRecorder`) and are written as JSONL by
the caller when the run ends.

Layer attribution relies on the session calling a synth function
(``conv_feature_map``/``gemm_activations``, which receive the layer spec)
before the other phases of the same layer; the wrappers remember the
last synthesised layer per thread.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from typing import NamedTuple

from common import now, slug

#: Names imported by ``repro.nn.session`` and the phase each one times.
SESSION_PHASES = {
    "conv_feature_map": "synth",
    "gemm_activations": "synth",
    "pad_feature_map": "lower",
    "lower_windows": "lower",
    "device_stats_from_operands": "stats",
    "vectorized_numeric_product": "numeric",
    "device_spgemm": "numeric",
    "sparsity_of": "sparsity",
}
PHASES = ("synth", "lower", "stats", "numeric", "sparsity")

RUN = "nn.run"
DIGEST = "serving.digest"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    attrs: "dict | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span list with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a span the caller timed itself (client-side spans)."""
        self.spans.append(Span(next(self._ids), name, start, end, -1, attrs))

    def wrap(self, name: str, fn, attrs_of=None):
        """``fn`` timed as span ``name``; ``attrs_of(args, kwargs, result)``."""
        stack_of, ids, spans = self._stack, self._ids, self.spans

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            spans.append(Span(span_id, name, start, end, parent, attrs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install(recorder: SpanRecorder, digest: bool = False):
    """Wrap the session's calls (and the server's digest); returns an undo."""
    import repro.nn.session as session

    local = threading.local()
    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def run_attrs(args, kwargs, result):
        return {
            "model": result.model,
            "images": result.images,
            "thread": threading.current_thread().name,
            "ohmma": result.ohmma_issued,
        }

    def synth_attrs(args, kwargs, result):
        local.layer = args[1].name  # the layer spec: a new layer starts
        return {"layer": local.layer}

    def phase_attrs(args, kwargs, result):
        return {"layer": getattr(local, "layer", "?")}

    def numeric_attrs(args, kwargs, result):
        # device_spgemm is called with the resolved backend; the fused
        # vectorized product takes none.
        return {
            "layer": getattr(local, "layer", "?"),
            "engine": kwargs.get("backend", "vectorized"),
        }

    attrs_by_phase = {"synth": synth_attrs, "numeric": numeric_attrs}
    patch(
        session.CompiledModel, "run",
        recorder.wrap(RUN, session.CompiledModel.run, run_attrs),
    )
    for name, phase in SESSION_PHASES.items():
        wrapped = recorder.wrap(
            f"nn.{phase}", getattr(session, name),
            attrs_by_phase.get(phase, phase_attrs),
        )
        patch(session, name, wrapped)
    if digest:
        import repro.serving.server as server

        patch(
            server, "functional_run_digest",
            recorder.wrap(DIGEST, server.functional_run_digest),
        )

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def write_spans(path, spans, id_offset: int = 0) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span.id + id_offset,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent + id_offset if span.parent >= 0 else -1,
                "attrs": span.attrs,
            }) + "\n")


def read_spans(path) -> "list[Span]":
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            spans.append(Span(
                doc["id"], doc["name"], doc["start"], doc["end"],
                doc["parent"], doc["attrs"],
            ))
    return spans


def session_metrics(spans, keep_run=lambda span: True):
    """Per-layer ``nn.*``/``core.*`` metrics and the per-layer phase table.

    Only ``nn.run`` spans accepted by ``keep_run`` (and their children)
    count, so warm-up batches can be left out.
    """
    runs = {s.id: s for s in spans if s.name == RUN and keep_run(s)}
    if not runs:
        return {}, []
    images = sum(len(s.attrs["images"]) for s in runs.values())
    run_s = sum(s.duration for s in runs.values())
    phase_s = dict.fromkeys(PHASES, 0.0)
    calls = defaultdict(int)
    table = defaultdict(lambda: [0, 0.0])
    for span in spans:
        parent = runs.get(span.parent)
        if parent is None:
            continue
        phase = span.name.split(".", 1)[1]
        phase_s[phase] += span.duration
        if phase == "numeric":
            calls[span.attrs["engine"]] += 1
        row = table[(parent.attrs["model"], span.attrs["layer"], phase)]
        row[0] += 1
        row[1] += span.duration

    model_images = defaultdict(int)
    model_s = defaultdict(float)
    for span in runs.values():
        model_images[span.attrs["model"]] += len(span.attrs["images"])
        model_s[span.attrs["model"]] += span.duration

    metrics = {
        "nn.run_ms_per_image": run_s * 1e3 / images,
        "core.numeric_ms_per_image": phase_s["numeric"] * 1e3 / images,
        "core.blocked_calls_per_image": calls["blocked"] / images,
        "core.vectorized_calls_per_image": calls["vectorized"] / images,
    }
    for phase in PHASES:
        metrics[f"nn.{phase}_share"] = phase_s[phase] / run_s
    metrics["nn.other_share"] = 1.0 - sum(phase_s.values()) / run_s
    ohmma = sum(s.attrs["ohmma"] for s in runs.values())
    if ohmma:
        metrics["core.host_ns_per_ohmma"] = phase_s["numeric"] * 1e9 / ohmma
    for model, count in model_images.items():
        metrics[f"nn.run_ms_per_image.{slug(model)}"] = (
            model_s[model] * 1e3 / count
        )
    rows = [
        {
            "model": model,
            "layer": layer,
            "phase": phase,
            "calls": count,
            "ms_per_image": total * 1e3 / model_images[model],
        }
        for (model, layer, phase), (count, total) in table.items()
    ]
    return metrics, rows


def write_layer_table(path, rows) -> None:
    """The per-(model, layer, phase) table as aligned text."""
    header = ("model", "layer", "phase", "calls", "ms_per_image")
    lines = [header] + [
        (r["model"], r["layer"], r["phase"], str(r["calls"]),
         f"{r['ms_per_image']:.3f}")
        for r in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(
                "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                + "\n"
            )
