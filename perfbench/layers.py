"""Per-layer attribution for the traced run.

Spans are recorded from these files only, around calls into each
layer's public functions; nothing under ``src/`` is instrumented.  The
replay walks a workload's own inputs through every layer serially, so
each span's time is that layer's cost on the workload's inputs.  It
runs twice, once with a :class:`NullTracer` and once with a
:class:`Tracer`: the ratio of the two walls is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.core.config import current_scale
from repro.core.encode import encode_gadgets
from repro.core.extract import GadgetDeduplicator, extract_gadgets
from repro.core.fingerprint import (component_digests,
                                    function_fingerprints,
                                    weak_components)
from repro.core.score import SCORE_MIN_LENGTH
from repro.core.telemetry import Telemetry
from repro.core.train import train_classifier
from repro.lang import ParseError, analyze, parse, tokenize
from repro.lang.callgraph import ast_call_edges
from repro.models.sevuldet import SEVulDetNet
from repro.nn import Adam, bce_with_logits, bucketed_batches, clip_grad_norm
from repro.slicing import (find_special_tokens, normalize_gadget,
                           path_sensitive_gadget)

#: Repetitions of the one-batch forward/backward/step timing.
NN_REPEATS = 10


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Flat, in-memory spans: ``(name, start, end)``.

    The replay never nests spans, so a span's self time is its
    duration and the top-level spans are all of them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end in self.spans:
            out[name] += end - start
        return out


def component_count(source: str) -> int:
    """Weakly connected call components of one file (0 when the file
    does not parse)."""
    try:
        unit = parse(source)
    except (ParseError, RecursionError):
        return 0
    return len(set(weak_components(ast_call_edges(unit)).values()))


def _net(dataset, seed: int) -> SEVulDetNet:
    scale = current_scale()
    model = SEVulDetNet(len(dataset.vocab), dim=scale.dim,
                        channels=scale.channels,
                        pretrained=dataset.word2vec.vectors, seed=seed)
    dataset.bind_embedding_aliases(model)
    return model


def replay(detector, cases, tracer, *, train_epochs: int,
           seed: int = 0) -> dict[str, float]:
    """Walk ``cases`` through every layer, one public call per span.

    ``detector`` is a trained detector: the score layer uses its
    model, as a scan does.  Training runs on a fresh network for
    ``train_epochs`` epochs over the replayed gadgets.  Returns the
    layer counts; times live in ``tracer``.
    """
    scale = current_scale()
    if detector.categories is not None:
        raise ValueError("the replay slices every token category")
    counts = defaultdict(float)
    for case in cases:
        source = case.source
        with tracer.span("lang.lex"):
            tokenize(source)
        with tracer.span("lang.parse"):
            unit = parse(source)
        with tracer.span("lang.analyze"):
            program = analyze(source, path=case.name)
        counts["lang.lines"] += source.count("\n") + 1
        counts["lang.functions"] += len(unit.functions)
        with tracer.span("slicing.criteria"):
            criteria = find_special_tokens(program, None)
        counts["slicing.criteria"] += len(criteria)
        for criterion in criteria:
            with tracer.span("slicing.slice"):
                gadget = path_sensitive_gadget(program, criterion)
            if not gadget.lines:
                counts["slicing.empty"] += 1
                continue
            with tracer.span("slicing.normalize"):
                normalize_gadget(gadget)
        with tracer.span("fingerprint"):
            component_digests(function_fingerprints(source),
                              ast_call_edges(unit))
        counts["fingerprint.files"] += 1

    per_case = []
    for case in cases:
        with tracer.span("extract"):
            gadgets = extract_gadgets([case], kind=detector.gadget_kind,
                                      deduplicate=False)
        per_case.append(gadgets)
    gadgets = [g for group in per_case for g in group]
    counts["score.gadgets"] = len(gadgets)
    with tracer.span("score.batched"):
        detector.score_gadgets(gadgets)
    for group in per_case:
        if group:
            with tracer.span("score.per_case"):
                detector.score_gadgets(group)

    kept = GadgetDeduplicator().filter(gadgets)
    with tracer.span("embed.encode"):
        dataset = encode_gadgets(kept, dim=scale.dim,
                                 w2v_epochs=scale.w2v_epochs, seed=seed)
    model = _net(dataset, seed)
    telemetry = Telemetry()
    with tracer.span("train"):
        train_classifier(model, dataset.samples, epochs=train_epochs,
                         batch_size=scale.batch_size,
                         lr=scale.learning_rate, seed=seed,
                         telemetry=telemetry)
    counts["train.samples"] = telemetry.get("train_samples")
    with tracer.span("nn"):
        counts.update(_one_batch(_net(dataset, seed), dataset.samples))
    return dict(counts)


def _one_batch(model, samples) -> dict[str, float]:
    """Median ms of forward, backward and optimizer step on one fixed
    batch, each timed ``NN_REPEATS`` times."""
    scale = current_scale()
    ids, labels = next(iter(bucketed_batches(
        samples, scale.batch_size, np.random.default_rng(0),
        min_length=SCORE_MIN_LENGTH)))
    params = list(model.parameters())
    optimizer = Adam(params, lr=scale.learning_rate)
    model.train()
    times = defaultdict(list)
    for _ in range(NN_REPEATS):
        optimizer.zero_grad()
        start = time.perf_counter()
        loss = bce_with_logits(model(ids), labels)
        forward = time.perf_counter()
        loss.backward()
        backward = time.perf_counter()
        clip_grad_norm(params, 5.0)
        optimizer.step()
        step = time.perf_counter()
        times["nn.forward_ms"].append(forward - start)
        times["nn.backward_ms"].append(backward - forward)
        times["nn.step_ms"].append(step - backward)
    return {name: 1000.0 * statistics.median(values)
            for name, values in times.items()}


def layer_metrics(tracer: Tracer, counts: dict[str, float],
                  wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced replay."""
    t = tracer.totals()
    lang = t["lang.analyze"]
    slicing = t["slicing.criteria"] + t["slicing.slice"] \
        + t["slicing.normalize"]
    criteria = counts.get("slicing.criteria", 0.0)
    attributed = sum(end - start for _, start, end in tracer.spans)
    return {
        "lang.lex_s": t["lang.lex"],
        "lang.parse_self_s": t["lang.parse"] - t["lang.lex"],
        "lang.analyze_self_s": t["lang.analyze"] - t["lang.parse"],
        "lang.lines": counts.get("lang.lines", 0.0),
        "lang.functions": counts.get("lang.functions", 0.0),
        "slicing.criteria_s": t["slicing.criteria"],
        "slicing.slice_s": t["slicing.slice"],
        "slicing.normalize_s": t["slicing.normalize"],
        "slicing.criteria": criteria,
        "slicing.empty": counts.get("slicing.empty", 0.0),
        "slicing.empty_ratio": (counts.get("slicing.empty", 0.0)
                                / criteria if criteria else 0.0),
        "extract.s": t["extract"],
        "extract.glue_s": t["extract"] - lang - slicing,
        "score.batched_s": t["score.batched"],
        "score.per_case_s": t["score.per_case"],
        "score.gadgets": counts.get("score.gadgets", 0.0),
        "fingerprint.s": t["fingerprint"],
        "fingerprint.files": counts.get("fingerprint.files", 0.0),
        "embed.encode_s": t["embed.encode"],
        "train.s": t["train"],
        "train.samples": counts.get("train.samples", 0.0),
        "train.samples_per_s": (counts.get("train.samples", 0.0)
                                / t["train"] if t["train"] else 0.0),
        "nn.forward_ms": counts["nn.forward_ms"],
        "nn.backward_ms": counts["nn.backward_ms"],
        "nn.step_ms": counts["nn.step_ms"],
        "trace.wall_s": wall,
        "trace.attributed_s": attributed,
        "trace.unattributed_ratio": (wall - attributed) / wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": wall / untraced_wall,
    }


def traced_replay(detector, cases, *, train_epochs: int,
                  seed: int = 0) -> dict[str, float]:
    """Replay untraced, traced, untraced; per-layer metrics of the
    traced replay.  The untraced wall is the mean of the two around
    it, so one-time warm-up and drift do not bias the overhead."""
    untraced = []
    for tracer in (NullTracer(), Tracer(), NullTracer()):
        start = time.perf_counter()
        counts = replay(detector, cases, tracer,
                        train_epochs=train_epochs, seed=seed)
        if isinstance(tracer, Tracer):
            traced, wall = tracer, time.perf_counter() - start
            traced_counts = counts
        else:
            untraced.append(time.perf_counter() - start)
    return layer_metrics(traced, traced_counts, wall,
                         statistics.mean(untraced))
