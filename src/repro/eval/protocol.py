"""The paper's evaluation protocol: gadget-level five-fold CV.

Section IV-B: "For each category in our prepared dataset, we randomly
select 30,000 path-sensitive code gadgets and divide them into five
equal parts for five-fold cross-validation."  This module runs that
protocol at any scale: sample gadgets, stratified k-fold split, train a
fresh model per fold, aggregate the fold metrics.

The gadget pool comes from the caller: extracting it through a
cache-bearing :meth:`RunContext.extract_gadgets
<repro.core.context.RunContext.extract_gadgets>` lets repeated protocol
runs over the same corpus (ablations, threshold sweeps) skip the
frontend entirely.  Each fold trains with a private
:class:`~repro.core.telemetry.Telemetry`, surfaced per fold on
:class:`FoldResult` and aggregated by
:meth:`CrossValidationReport.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.config import Scale
from ..core.encode import encode_gadgets
from ..core.extract import LabeledGadget
from ..core.score import evaluate_classifier
from ..core.telemetry import Telemetry
from ..core.train import train_classifier
from .crossval import stratified_kfold_indices
from .metrics import Metrics

__all__ = ["FoldResult", "CrossValidationReport", "cross_validate"]


@dataclass(frozen=True)
class FoldResult:
    """One fold's held-out metrics (plus its private telemetry)."""

    fold: int
    metrics: Metrics
    train_size: int
    test_size: int
    telemetry: Telemetry | None = None


@dataclass
class CrossValidationReport:
    """Aggregated k-fold outcome."""

    folds: list[FoldResult]

    def _values(self, pick: Callable[[Metrics], float]) -> np.ndarray:
        return np.array([pick(fold.metrics) for fold in self.folds])

    @property
    def mean_f1(self) -> float:
        return float(self._values(lambda m: m.f1).mean())

    @property
    def std_f1(self) -> float:
        return float(self._values(lambda m: m.f1).std())

    @property
    def mean_accuracy(self) -> float:
        return float(self._values(lambda m: m.accuracy).mean())

    @property
    def mean_precision(self) -> float:
        return float(self._values(lambda m: m.precision).mean())

    @property
    def mean_fpr(self) -> float:
        return float(self._values(lambda m: m.fpr).mean())

    @property
    def mean_fnr(self) -> float:
        return float(self._values(lambda m: m.fnr).mean())

    def summary(self) -> dict[str, float]:
        """Paper-style percentage summary across folds, plus mean
        per-fold train/evaluate wall-clock when telemetry is present."""
        summary = {
            "FPR(%)": round(self.mean_fpr * 100, 1),
            "FNR(%)": round(self.mean_fnr * 100, 1),
            "A(%)": round(self.mean_accuracy * 100, 1),
            "P(%)": round(self.mean_precision * 100, 1),
            "F1(%)": round(self.mean_f1 * 100, 1),
            "F1 std(%)": round(self.std_f1 * 100, 1),
        }
        timings = [fold.telemetry for fold in self.folds
                   if fold.telemetry is not None]
        if timings:
            summary["train(s)"] = round(float(np.mean(
                [t.seconds("train") for t in timings])), 2)
            summary["eval(s)"] = round(float(np.mean(
                [t.seconds("evaluate") for t in timings])), 2)
        return summary


def cross_validate(
    gadgets: Sequence[LabeledGadget],
    model_builder: Callable[[int, np.ndarray | None], object],
    *,
    scale: Scale,
    k: int = 5,
    sample: int | None = None,
    threshold: float = 0.5,
    seed: int = 0,
) -> CrossValidationReport:
    """Run the paper's k-fold protocol.

    Args:
        gadgets: the labelled gadget pool.
        model_builder: callable ``(vocab_size, pretrained) -> model``;
            called fresh for every fold.
        scale: sizing preset — embedding width and word2vec epochs
            (``dim``, ``w2v_epochs``) and the per-fold training
            schedule (``epochs``, ``batch_size``, ``learning_rate``).
        k: number of folds (paper: 5).
        sample: randomly subsample this many gadgets first (paper:
            30,000 per category); None keeps everything.
        threshold: decision threshold for the fold metrics.
    """
    rng = np.random.default_rng(seed)
    pool = list(gadgets)
    if sample is not None and sample < len(pool):
        picks = rng.choice(len(pool), size=sample, replace=False)
        pool = [pool[int(i)] for i in picks]
    if len(pool) < k:
        raise ValueError(f"cannot {k}-fold split {len(pool)} gadgets")

    # One vocabulary + embedding per run (training folds dominate the
    # corpus, so vocabulary leakage across folds is negligible and the
    # paper pre-trains word2vec on the full corpus the same way).
    dataset = encode_gadgets(pool, dim=scale.dim,
                             w2v_epochs=scale.w2v_epochs, seed=seed)
    labels = [g.label for g in pool]

    folds: list[FoldResult] = []
    for fold_index, (train_idx, test_idx) in enumerate(
            stratified_kfold_indices(labels, k, rng)):
        model = model_builder(len(dataset.vocab),
                              dataset.word2vec.vectors)
        dataset.bind_embedding_aliases(model)
        # private telemetry and no checkpoints: folds train on
        # different sample sets, so none may resume another's run
        fold_telemetry = Telemetry()
        train_classifier(model, dataset.subset(train_idx),
                         epochs=scale.epochs,
                         batch_size=scale.batch_size,
                         lr=scale.learning_rate,
                         seed=seed + fold_index,
                         telemetry=fold_telemetry)
        with fold_telemetry.stage("evaluate"):
            metrics = evaluate_classifier(model,
                                          dataset.subset(test_idx),
                                          threshold=threshold)
        folds.append(FoldResult(fold_index, metrics,
                                len(train_idx), len(test_idx),
                                fold_telemetry))
    return CrossValidationReport(folds)
