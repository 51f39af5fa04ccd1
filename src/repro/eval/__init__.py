"""Metrics, cross-validation, and the detector evaluation protocol."""

from .metrics import Confusion, Metrics, confusion_from, metrics_from
from .crossval import kfold_indices, kfold_split, stratified_kfold_indices
from .report import Table, atomic_write_text
from .significance import BootstrapComparison, paired_bootstrap
from .thresholds import (OperatingPoint, best_f1_threshold,
                         precision_recall_points, roc_auc, roc_points,
                         sweep_thresholds, threshold_for_fpr)

__all__ = [
    "Confusion", "Metrics", "confusion_from", "metrics_from",
    "kfold_indices", "kfold_split", "stratified_kfold_indices",
    "Table",
    "BootstrapComparison", "paired_bootstrap",
    "OperatingPoint", "best_f1_threshold", "precision_recall_points",
    "roc_auc", "roc_points", "sweep_thresholds", "threshold_for_fpr",
    "atomic_write_text",
    "FRAMEWORKS", "FrameworkSpec",
    "CrossValidationReport", "FoldResult", "cross_validate",
    "Detector", "Prediction", "FrameworkDetector", "StaticToolDetector",
    "FuzzDetector", "build_detector", "default_detectors",
    "MatrixCell", "MatrixResult", "MatrixRunner",
]

_COMPARISON_NAMES = {"FRAMEWORKS", "FrameworkSpec"}
_PROTOCOL_NAMES = {"CrossValidationReport", "FoldResult",
                   "cross_validate"}
_DETECTOR_NAMES = {"Detector", "Prediction", "FrameworkDetector",
                   "StaticToolDetector", "FuzzDetector",
                   "build_detector", "default_detectors"}
_MATRIX_NAMES = {"MatrixCell", "MatrixResult", "MatrixRunner"}


def __getattr__(name: str):
    # comparison imports core.score, which imports eval.metrics;
    # loading it (and everything built on it) lazily keeps the package
    # import acyclic.
    if name in _COMPARISON_NAMES:
        from . import comparison

        return getattr(comparison, name)
    if name in _PROTOCOL_NAMES:
        from . import protocol

        return getattr(protocol, name)
    if name in _DETECTOR_NAMES:
        from . import detector

        return getattr(detector, name)
    if name in _MATRIX_NAMES:
        from . import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
