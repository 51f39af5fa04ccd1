"""Framework-comparison harness (Tables II, III, V, VI and Fig 5).

Encodes each evaluated system as a :class:`FrameworkSpec` — gadget
kind, slicing configuration, network builder, hyper-parameters — and
provides the train/evaluate drivers the benchmark suite calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from ..core.config import Scale
from ..core.encode import EncodedDataset, encode_gadgets
from ..core.extract import LabeledGadget, extract_gadgets
from ..core.score import evaluate_classifier
from ..core.train import train_classifier
from ..datasets.manifest import TestCase
from ..models.bgru import BGRUNet
from ..models.blstm import BLSTMNet
from ..models.cnn_variants import cnn_multi_att, cnn_token_att, plain_cnn
from ..models.sevuldet import SEVulDetNet
from .metrics import Metrics, confusion_from, metrics_from

__all__ = ["FrameworkSpec", "FRAMEWORKS", "train_and_evaluate",
           "evaluate_static_tool", "StaticTool"]


class StaticTool(Protocol):
    """Protocol the classical scanners implement."""

    name: str

    def flags(self, source: str) -> bool: ...


@dataclass(frozen=True)
class FrameworkSpec:
    """One deep-learning detection framework's configuration."""

    name: str
    gadget_kind: str           # 'classic' | 'path-sensitive'
    use_control: bool
    builder: Callable[..., object]
    categories: tuple[str, ...] | None = None

    @property
    def fixed_length(self) -> bool:
        """True for the fixed-length BRNNs (BLSTM, BGRU)."""
        return self.builder in (BLSTMNet, BGRUNet)

    def batch_size(self, scale: Scale) -> int:
        """Training batch size: fixed-length BRNNs batch at 64
        (VulDeePecker's Table IV value; it also amortises the
        per-timestep recurrence loop, which dominates BRNN training
        cost on CPU), every other network at ``scale.batch_size``."""
        return 64 if self.fixed_length else scale.batch_size

    def build_model(self, vocab_size: int, scale: Scale,
                    pretrained: np.ndarray | None,
                    seed: int) -> object:
        if self.fixed_length:
            return self.builder(vocab_size, dim=scale.dim,
                                hidden=scale.hidden,
                                time_steps=scale.time_steps,
                                pretrained=pretrained, seed=seed)
        return self.builder(vocab_size, dim=scale.dim,
                            channels=scale.channels,
                            pretrained=pretrained, seed=seed)


def _sevuldet_builder(vocab_size: int, dim: int, channels: int,
                      pretrained, seed: int) -> SEVulDetNet:
    return SEVulDetNet(vocab_size, dim=dim, channels=channels,
                       pretrained=pretrained, seed=seed)


#: The evaluated systems.  VulDeePecker: data-only classic gadgets into
#: a BLSTM, FC category only.  SySeVR: data+control classic gadgets
#: into a BGRU, all categories.  SEVulDet: path-sensitive gadgets into
#: the CNN/SPP/attention network.
FRAMEWORKS: dict[str, FrameworkSpec] = {
    "VulDeePecker": FrameworkSpec("VulDeePecker", "classic", False,
                                  BLSTMNet, categories=("FC",)),
    "SySeVR": FrameworkSpec("SySeVR", "classic", True, BGRUNet),
    "SEVulDet": FrameworkSpec("SEVulDet", "path-sensitive", True,
                              _sevuldet_builder),
    # Ablation networks (Table II/III) — same data path as SEVulDet.
    "BLSTM": FrameworkSpec("BLSTM", "classic", True, BLSTMNet),
    "BGRU": FrameworkSpec("BGRU", "classic", True, BGRUNet),
    "CNN": FrameworkSpec("CNN", "path-sensitive", True, plain_cnn),
    "CNN-TokenATT": FrameworkSpec("CNN-TokenATT", "path-sensitive",
                                  True, cnn_token_att),
    "CNN-MultiATT": FrameworkSpec("CNN-MultiATT", "path-sensitive",
                                  True, cnn_multi_att),
}


def train_and_evaluate(
    spec: FrameworkSpec,
    train_cases: Sequence[TestCase],
    test_cases: Sequence[TestCase],
    scale: Scale,
    *,
    seed: int = 7,
    categories: tuple[str, ...] | None = None,
    gadget_kind: str | None = None,
    threshold: float = 0.5,
) -> tuple[Metrics, EncodedDataset]:
    """Full pipeline for one framework on a train/test corpus split.

    Args:
        spec: the framework configuration.
        train_cases / test_cases: disjoint corpora.
        scale: sizing preset.
        categories: overrides the spec's category restriction.
        gadget_kind: overrides the spec's gadget kind (used by the RQ1
            CG vs PS-CG sweep, which crosses networks with data kinds).
        threshold: decision threshold on the sigmoid output.

    Returns:
        (metrics on the test gadgets, the training EncodedDataset).
    """
    kind = gadget_kind or spec.gadget_kind
    wanted = categories if categories is not None else spec.categories
    train_gadgets = extract_gadgets(train_cases, kind=kind,
                                    categories=wanted,
                                    use_control=spec.use_control)
    test_gadgets = extract_gadgets(test_cases, kind=kind,
                                   categories=wanted,
                                   use_control=spec.use_control)
    if not train_gadgets or not test_gadgets:
        raise ValueError(f"no gadgets extracted for {spec.name}")
    dataset = encode_gadgets(train_gadgets, dim=scale.dim,
                             w2v_epochs=scale.w2v_epochs, seed=seed)
    model = spec.build_model(len(dataset.vocab), scale,
                             dataset.word2vec.vectors, seed)
    dataset.bind_embedding_aliases(model)
    train_classifier(model, dataset.samples, epochs=scale.epochs,
                     batch_size=spec.batch_size(scale),
                     lr=scale.learning_rate, seed=seed)
    test_samples = [g.sample(dataset.vocab) for g in test_gadgets]
    metrics = evaluate_classifier(model, test_samples,
                                  threshold=threshold)
    return metrics, dataset


def evaluate_static_tool(tool: StaticTool,
                         cases: Sequence[TestCase]) -> Metrics:
    """Program-level verdicts of a classical scanner vs ground truth."""
    predictions = [1 if tool.flags(case.source) else 0 for case in cases]
    labels = [1 if case.vulnerable else 0 for case in cases]
    return metrics_from(confusion_from(predictions, labels))
