"""Fig 5 — classical static tools vs SEVulDet.

The four scanners and the learned detector run as one matrix column
over the shared corpus: scanners via :class:`StaticToolDetector`
(which also routes their wall time through telemetry), SEVulDet via a
small adapter over the end-to-end facade (program-level ``detect()``
verdicts at the paper's 0.8 threshold, as before).  Paper shape:
* Flawfinder and RATS: high FPR and/or FNR (lexical matching only);
* Checkmarx: better than the grep tools but still weak;
* VUDDY: near-zero FPR, very high FNR (exact-clone matching);
* SEVulDet dominates all of them on F1.
"""

from repro.baselines.checkmarx import CheckmarxScanner
from repro.baselines.flawfinder import FlawfinderScanner
from repro.baselines.rats import RatsScanner
from repro.baselines.vuddy import VuddyScanner
from repro.core.detector import SEVulDet
from repro.datasets.adapters import FixedCorpusAdapter
from repro.eval.detector import Prediction, StaticToolDetector
from repro.eval.matrix import MatrixRunner

from conftest import run_once

PAPER_NOTE = {
    "Flawfinder": "high FPR+FNR", "RATS": "high FPR+FNR",
    "Checkmarx": "better, still high", "VUDDY": "low FPR / high FNR",
    "SEVulDet": "dominates",
}

TOOLS = ("Flawfinder", "RATS", "Checkmarx", "VUDDY")


class FacadeDetector:
    """The end-to-end SEVulDet facade as a matrix detector (its own
    extraction, 0.8 decision threshold, program-level verdicts)."""

    name = "SEVulDet"

    def __init__(self, scale, seed):
        self._detector = SEVulDet(scale=scale, seed=seed)

    def fit(self, cases, ctx):
        self._detector.fit(cases)

    def predict(self, cases, ctx):
        verdicts = [1 if self._detector.detect(case.source) else 0
                    for case in cases]
        return Prediction(detector=self.name, verdicts=verdicts,
                          scores=[float(v) for v in verdicts],
                          basis="case")


def test_fig5_static_tool_comparison(benchmark, reporter, scale,
                                     train_cases, test_cases):
    def experiment():
        detectors = [
            StaticToolDetector(FlawfinderScanner()),
            StaticToolDetector(RatsScanner()),
            StaticToolDetector(CheckmarxScanner()),
            StaticToolDetector(VuddyScanner()),  # fit() feeds it
            FacadeDetector(scale, seed=31),
        ]
        runner = MatrixRunner(
            detectors,
            [FixedCorpusAdapter("sard", train_cases, test_cases)],
            baseline="Flawfinder", seed=31, resamples=200)
        return runner.run()

    result = run_once(benchmark, experiment)

    for cell in result.cells:
        assert cell.ok, (cell.detector, cell.error)
    results = {name: result.cell(name, "sard").metrics
               for name in (*TOOLS, "SEVulDet")}

    table = reporter("fig5_static_tools",
                     "Fig 5 — classical static tools vs SEVulDet "
                     "(program-level verdicts)")
    for name, metrics in results.items():
        table.add(tool=name, **metrics.as_percentages(),
                  paper_shape=PAPER_NOTE[name])
    table.save_and_print()

    # Shape 1: SEVulDet's F1 dominates every classical tool.
    for name in TOOLS:
        assert results["SEVulDet"].f1 > results[name].f1, name

    # Shape 2: VUDDY trades FNR for FPR — lowest FPR of the classical
    # tools, and a high FNR.
    classical_fprs = {name: results[name].fpr for name in TOOLS}
    assert results["VUDDY"].fpr == min(classical_fprs.values())
    assert results["VUDDY"].fnr > 0.5

    # Shape 3: the lexical scanners are substantially wrong somewhere
    # (the sum of their error rates is large).
    for name in ("Flawfinder", "RATS"):
        assert results[name].fpr + results[name].fnr > 0.4, name
