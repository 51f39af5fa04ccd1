"""Detector adapters: one protocol over every evaluated system.

Every system the paper compares is a :class:`Detector` (``name`` /
optional ``fit`` / ``predict``); the table benchmarks, the tests and
the matrix runner (:mod:`repro.eval.matrix`) all evaluate through it —
there is no second train-and-score driver.

Three adapter families cover the existing systems:

* :class:`FrameworkDetector` — any :data:`FRAMEWORKS` entry, trained
  by :func:`~repro.core.train.train_on_cases` (the recipe
  :meth:`SEVulDet.fit <repro.core.detector.SEVulDet.fit>` runs) over a
  shared :class:`~repro.core.context.RunContext`, so the gadget
  caches, quarantine, and telemetry are reused across matrix cells.
* :class:`StaticToolDetector` — flawfinder/RATS/checkmarx/vuddy.
  Verdicts route through the context's telemetry (per-tool wall time
  and cases/sec).
* :class:`FuzzDetector` — the AFL-style fuzzer, bounded per case.

Every adapter returns a :class:`Prediction` carrying *per-case*
verdicts (aligned with the input cases — the common denominator the
paired bootstrap compares across detector families) plus, for gadget
models, the per-gadget scores/labels behind the paper's gadget-level
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from ..baselines import AFLFuzzer
from ..core.config import Scale, current_scale
from ..core.context import RunContext
from ..core.encode import EncodedDataset
from ..core.extract import GadgetDeduplicator, LabeledGadget
from ..core.score import predict_proba
from ..core.train import train_on_cases
from ..datasets.adapters import derive_seed
from ..datasets.manifest import TestCase
from .comparison import FRAMEWORKS, FrameworkSpec, StaticTool
from .metrics import Metrics, confusion_from, metrics_from

__all__ = ["Detector", "Prediction", "FrameworkDetector",
           "StaticToolDetector", "FuzzDetector", "build_detector",
           "default_detectors"]


@dataclass
class Prediction:
    """One detector's output over one test corpus.

    Attributes:
        detector: the producing detector's name.
        verdicts: per-case 0/1 decisions, aligned with the input cases
            — the cross-family common denominator (bootstrap
            significance compares these).
        scores: per-case scores behind the verdicts (max gadget score
            for gadget models; 0/1 for binary tools).
        basis: which granularity :meth:`metrics` reports — ``gadget``
            for deep models (matching the paper's gadget-level tables)
            or ``case`` for program-level tools.
        gadget_scores / gadget_labels: the deduplicated test-gadget
            scores and ground truth (gadget basis only).
        threshold: decision threshold the verdicts used.
    """

    detector: str
    verdicts: list[int]
    scores: list[float]
    basis: str = "case"
    gadget_scores: list[float] | None = None
    gadget_labels: list[int] | None = None
    threshold: float = 0.5

    def metrics(self, labels: Sequence[int]) -> Metrics:
        """Metrics at the prediction's native granularity.

        ``labels`` are the per-case ground truth; gadget-basis
        predictions ignore them in favour of their own gadget labels
        (the paper's gadget-level tables).
        """
        if self.basis == "gadget":
            assert self.gadget_scores is not None
            assert self.gadget_labels is not None
            decisions = [1 if score >= self.threshold else 0
                         for score in self.gadget_scores]
            return metrics_from(
                confusion_from(decisions, list(self.gadget_labels)))
        return metrics_from(
            confusion_from(list(self.verdicts), list(labels)))

    def case_metrics(self, labels: Sequence[int]) -> Metrics:
        """Metrics over the per-case verdicts (every basis has these)."""
        return metrics_from(
            confusion_from(list(self.verdicts), list(labels)))


@runtime_checkable
class Detector(Protocol):
    """What the matrix needs from an evaluated system.

    ``fit`` is optional — the matrix runner calls it only when the
    adapter defines it (classical scanners are training-free, VUDDY
    consumes only the vulnerable half of the train split).
    """

    name: str

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        """Score/decide every case; aligned with the input order."""
        ...


class FrameworkDetector:
    """A :data:`FRAMEWORKS` entry behind the :class:`Detector` protocol.

    Fitting runs :func:`~repro.core.train.train_on_cases` through the
    shared context with the spec's extraction settings, builder and
    :meth:`FrameworkSpec.batch_size` policy.  Prediction extracts the
    test corpus per case (so verdicts can be attributed to programs),
    re-applies corpus-order deduplication to recover the one-shot
    gadget list, and scores that list once; each case's score is the
    max over its gadgets' scores, via a tokens-keyed map so duplicate
    gadgets share their survivor's score by construction.
    """

    def __init__(self, spec: FrameworkSpec | str,
                 scale: Scale | None = None, *, seed: int = 7,
                 threshold: float = 0.5,
                 categories: tuple[str, ...] | None = None,
                 gadget_kind: str | None = None,
                 name: str | None = None):
        self.spec = FRAMEWORKS[spec] if isinstance(spec, str) else spec
        self.scale = scale if scale is not None else current_scale()
        self.seed = seed
        self.threshold = threshold
        self.kind = gadget_kind or self.spec.gadget_kind
        self.categories = (categories if categories is not None
                           else self.spec.categories)
        self.name = name if name is not None else self.spec.name
        #: the trained network and its training EncodedDataset, set by
        #: :meth:`fit`
        self.model = None
        self.dataset: EncodedDataset | None = None

    def fit(self, cases: Sequence[TestCase], ctx: RunContext) -> None:
        spec, scale, seed = self.spec, self.scale, self.seed
        self.model, self.dataset, _ = train_on_cases(
            ctx, cases, kind=self.kind, categories=self.categories,
            use_control=spec.use_control,
            build=lambda vocab_size, pretrained: spec.build_model(
                vocab_size, scale, pretrained, seed),
            scale=scale, seed=seed, batch_size=spec.batch_size(scale),
            epochs=scale.epochs)

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        if self.model is None or self.dataset is None:
            raise RuntimeError(
                f"{self.name}: predict() before fit()")
        with ctx.extractor(self.kind, self.categories,
                           use_control=self.spec.use_control
                           ) as extractor:
            per_case = extractor.run(cases, failures=ctx.failures)
        # Corpus-order dedup over the per-case stream reconstructs the
        # one-shot extract_gadgets() list exactly, so gadget metrics
        # equal scoring that list in one pass.
        deduper = GadgetDeduplicator(enabled=True)
        deduped: list[LabeledGadget] = []
        for result in per_case:
            deduped.extend(deduper.filter(result.gadgets))
        gadget_scores: list[float] = []
        score_of: dict[tuple, float] = {}
        if deduped:
            samples = [g.sample(self.dataset.vocab) for g in deduped]
            raw = predict_proba(self.model, samples)
            gadget_scores = [float(s) for s in raw]
            score_of = {(g.tokens, g.label): score
                        for g, score in zip(deduped, gadget_scores)}
        verdicts: list[int] = []
        scores: list[float] = []
        for result in per_case:
            case_score = max(
                (score_of[(g.tokens, g.label)] for g in result.gadgets),
                default=0.0)
            scores.append(case_score)
            verdicts.append(1 if case_score >= self.threshold else 0)
        return Prediction(
            detector=self.name, verdicts=verdicts, scores=scores,
            basis="gadget", gadget_scores=gadget_scores,
            gadget_labels=[g.label for g in deduped],
            threshold=self.threshold)


class StaticToolDetector:
    """A classical scanner behind the :class:`Detector` protocol.

    Predictions run inside a telemetry stage (``tool:<name>``) and
    bump a per-tool case counter, so matrix runs can report each
    tool's wall time and cases/sec.
    """

    def __init__(self, tool: StaticTool, name: str | None = None):
        self.tool = tool
        self.name = name if name is not None else tool.name

    def fit(self, cases: Sequence[TestCase], ctx: RunContext) -> None:
        """Feed clone-hash tools their vulnerable reference corpus."""
        add = getattr(self.tool, "add_vulnerable", None)
        if add is None:
            return
        with ctx.telemetry.stage(f"tool_fit:{self.name}"):
            for case in cases:
                if case.vulnerable:
                    add(case.source)

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        verdicts: list[int] = []
        with ctx.telemetry.stage(f"tool:{self.name}"):
            for case in cases:
                verdicts.append(1 if self.tool.flags(case.source) else 0)
                ctx.telemetry.count(f"tool_cases:{self.name}")
        return Prediction(
            detector=self.name, verdicts=verdicts,
            scores=[float(v) for v in verdicts], basis="case")


class FuzzDetector:
    """Coverage-guided fuzzing behind the :class:`Detector` protocol.

    Each case gets a bounded fuzzing campaign; a case whose source the
    fuzzer's frontend cannot parse counts as a clean (0) verdict and a
    ``fuzz_unparsed`` telemetry tick rather than an error — the matrix
    treats detector limitations as misses, not crashes.
    """

    def __init__(self, *, max_execs: int = 150, max_steps: int = 2500,
                 seed: int = 0, name: str = "AFL"):
        self.max_execs = max_execs
        self.max_steps = max_steps
        self.seed = seed
        self.name = name

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        verdicts: list[int] = []
        with ctx.telemetry.stage(f"tool:{self.name}"):
            for case in cases:
                try:
                    fuzzer = AFLFuzzer(
                        case.source, max_execs=self.max_execs,
                        max_steps=self.max_steps,
                        seed=derive_seed(self.seed, case.name))
                    report = fuzzer.run()
                    found = bool(report.found_anything)
                except Exception:
                    ctx.telemetry.count("fuzz_unparsed")
                    found = False
                verdicts.append(1 if found else 0)
                ctx.telemetry.count(f"tool_cases:{self.name}")
        return Prediction(
            detector=self.name, verdicts=verdicts,
            scores=[float(v) for v in verdicts], basis="case")


def _static_tools() -> dict[str, object]:
    from ..baselines import (CheckmarxScanner, FlawfinderScanner,
                             RatsScanner, VuddyScanner)

    return {
        "flawfinder": FlawfinderScanner,
        "rats": RatsScanner,
        "checkmarx": CheckmarxScanner,
        "vuddy": VuddyScanner,
    }


def build_detector(name: str, *, scale: Scale | None = None,
                   seed: int = 7, threshold: float = 0.5,
                   fuzz_execs: int = 150,
                   fuzz_steps: int = 2500) -> Detector:
    """Construct a detector by registry name.

    Framework names (``SEVulDet``, ``VulDeePecker``, ``SySeVR``,
    ``BLSTM``, ...) match :data:`FRAMEWORKS` case-insensitively;
    static tools are ``flawfinder``/``rats``/``checkmarx``/``vuddy``;
    the fuzzer is ``afl`` (alias ``fuzzer``).
    """
    key = name.lower()
    for framework_name, spec in FRAMEWORKS.items():
        if framework_name.lower() == key:
            return FrameworkDetector(spec, scale, seed=seed,
                                     threshold=threshold)
    tools = _static_tools()
    if key in tools:
        return StaticToolDetector(tools[key]())
    if key in ("afl", "fuzzer"):
        return FuzzDetector(max_execs=fuzz_execs, max_steps=fuzz_steps,
                            seed=seed)
    known = sorted([*FRAMEWORKS, *tools, "afl"], key=str.lower)
    raise ValueError(f"unknown detector {name!r}; choose from {known}")


#: The acceptance grid: SEVulDet, one BRNN framework, four static
#: tools, and the fuzzer.
DEFAULT_DETECTOR_NAMES = ("SEVulDet", "SySeVR", "flawfinder", "rats",
                         "checkmarx", "vuddy", "afl")


def default_detectors(*, scale: Scale | None = None, seed: int = 7
                      ) -> list[Detector]:
    """Fresh instances of the standard detector lineup."""
    return [build_detector(name, scale=scale, seed=seed)
            for name in DEFAULT_DETECTOR_NAMES]
