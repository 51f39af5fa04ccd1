"""The evaluated systems of Tables II, III, V, VI and Fig 5.

Encodes each deep-learning framework as a :class:`FrameworkSpec` —
gadget kind, slicing configuration, network builder, hyper-parameters
— and names the :class:`StaticTool` interface the classical scanners
implement.  Both are evaluated through the adapters in
:mod:`repro.eval.detector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..core.config import Scale
from ..models.bgru import BGRUNet
from ..models.blstm import BLSTMNet
from ..models.cnn_variants import cnn_multi_att, cnn_token_att, plain_cnn
from ..models.sevuldet import SEVulDetNet

__all__ = ["FrameworkSpec", "FRAMEWORKS", "StaticTool"]


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
