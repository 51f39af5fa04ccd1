"""repro — reproduction of SEVulDet (DSN 2022).

Semantics-Enhanced learnable Vulnerability Detector: path-sensitive
code gadgets (Algorithm 1) feeding a flexible-length CNN with token
attention, CBAM, and spatial pyramid pooling — plus every substrate the
paper's evaluation depends on (C frontend, numpy DL framework,
synthetic SARD/NVD/Xen corpora, classical-tool and fuzzing baselines).

Quickstart::

    from repro import SEVulDet, generate_sard_corpus

    detector = SEVulDet()
    detector.fit(generate_sard_corpus(200, seed=1))
    findings = detector.detect(open("target.c").read(), path="target.c")
"""

from .core.detector import Finding, SEVulDet
from .core.config import SCALE_PRESETS, Scale, current_scale
from .datasets import (CVE_CASES, TestCase, generate_nvd_corpus,
                       generate_sard_corpus, generate_xen_corpus)
from .eval import FRAMEWORKS, Metrics

__version__ = "1.0.0"

__all__ = [
    "Finding", "SEVulDet",
    "SCALE_PRESETS", "Scale", "current_scale",
    "CVE_CASES", "TestCase", "generate_nvd_corpus",
    "generate_sard_corpus", "generate_xen_corpus",
    "FRAMEWORKS", "Metrics",
    "__version__",
]
