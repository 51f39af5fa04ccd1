"""Detector protocol + matrix runner tests.

The load-bearing ones are the scoring pins: a
:class:`FrameworkDetector`'s gadget metrics equal one pass of
``evaluate_classifier`` over the one-shot deduplicated test gadgets,
and its ``fit`` trains exactly the weights ``SEVulDet.fit`` trains on
the same seed.  Runs at a deliberately tiny scale so the whole module
stays fast.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import FlawfinderScanner, VuddyScanner
from repro.core.config import Scale
from repro.core.context import RunContext
from repro.core.detector import SEVulDet
from repro.core.extract import extract_gadgets
from repro.core.score import evaluate_classifier
from repro.datasets.adapters import FixedCorpusAdapter, SardAdapter
from repro.datasets.sard import generate_sard_corpus
from repro.eval.detector import (FrameworkDetector, FuzzDetector,
                                 Prediction, StaticToolDetector,
                                 build_detector, default_detectors)
from repro.eval.matrix import MatrixRunner

TINY = Scale("tiny", cases_per_experiment=24, dim=6, channels=6,
             hidden=6, epochs=2, batch_size=8, time_steps=24,
             w2v_epochs=1)


@pytest.fixture(scope="module")
def corpus():
    return (generate_sard_corpus(24, seed=101),
            generate_sard_corpus(12, seed=201))


class TestFrameworkDetectorParity:
    @pytest.mark.parametrize("framework", ["SEVulDet", "SySeVR"])
    def test_metrics_equal_serial_path(self, corpus, framework):
        # per-case extraction + corpus-order dedup must score exactly
        # the one-shot deduplicated gadget list, in one pass
        train, test = corpus
        detector = FrameworkDetector(framework, TINY, seed=17)
        ctx = RunContext.create()
        detector.fit(train, ctx)
        prediction = detector.predict(test, ctx)
        one_shot = extract_gadgets(
            test, kind=detector.kind, categories=detector.categories,
            use_control=detector.spec.use_control)
        expected = evaluate_classifier(
            detector.model,
            [g.sample(detector.dataset.vocab) for g in one_shot],
            threshold=detector.threshold)
        labels = [1 if case.vulnerable else 0 for case in test]
        assert prediction.gadget_labels == [g.label for g in one_shot]
        assert prediction.metrics(labels) == expected

    def test_facade_and_adapter_train_equal_weights(self, corpus):
        # SEVulDet.fit and FrameworkDetector.fit share one recipe; the
        # argument mapping must make their weights bit-identical.  A
        # batch of 2 is smaller than the corpus's length buckets, so a
        # batch-size mismatch shows too.
        train, _ = corpus
        scale = replace(TINY, batch_size=2)
        facade = SEVulDet(scale=scale, seed=17)
        facade.fit(train)
        adapter = FrameworkDetector("SEVulDet", scale, seed=17)
        adapter.fit(train, RunContext.create())
        expected = facade.model.state_dict()
        actual = adapter.model.state_dict()
        assert expected.keys() == actual.keys()
        for name, array in expected.items():
            assert np.array_equal(array, actual[name]), name

    def test_predict_before_fit_raises(self, corpus):
        _, test = corpus
        detector = FrameworkDetector("SEVulDet", TINY)
        with pytest.raises(RuntimeError):
            detector.predict(test, RunContext.create())

    def test_case_verdicts_aligned_and_thresholded(self, corpus):
        train, test = corpus
        detector = FrameworkDetector("SEVulDet", TINY, seed=17)
        ctx = RunContext.create()
        detector.fit(train, ctx)
        prediction = detector.predict(test, ctx)
        assert len(prediction.verdicts) == len(test)
        assert len(prediction.scores) == len(test)
        assert prediction.basis == "gadget"
        for verdict, score in zip(prediction.verdicts,
                                  prediction.scores):
            assert verdict == (1 if score >= detector.threshold
                               else 0)


class TestStaticToolDetector:
    def test_telemetry_routed(self, corpus):
        _, test = corpus
        ctx = RunContext.create()
        detector = StaticToolDetector(FlawfinderScanner())
        prediction = detector.predict(test, ctx)
        assert len(prediction.verdicts) == len(test)
        assert prediction.basis == "case"
        assert ctx.telemetry.get("tool_cases:Flawfinder") == len(test)
        assert ctx.telemetry.calls("tool:Flawfinder") == 1
        assert ctx.telemetry.rate("tool_cases:Flawfinder",
                                  "tool:Flawfinder") > 0

    def test_fit_feeds_clone_reference(self, corpus):
        train, _ = corpus
        ctx = RunContext.create()
        detector = StaticToolDetector(VuddyScanner())
        detector.fit(train, ctx)
        vulnerable = next(case for case in train if case.vulnerable)
        prediction = detector.predict([vulnerable], ctx)
        assert prediction.verdicts == [1]


class TestFuzzDetector:
    def test_bounded_campaigns(self, corpus):
        _, test = corpus
        ctx = RunContext.create()
        detector = FuzzDetector(max_execs=20, max_steps=400)
        prediction = detector.predict(test[:4], ctx)
        assert len(prediction.verdicts) == 4
        assert set(prediction.verdicts) <= {0, 1}

    def test_unparseable_source_is_a_miss(self):
        from repro.datasets.manifest import TestCase

        broken = TestCase(name="broken.c", source="int main( {{{",
                          vulnerable=True, vulnerable_lines=frozenset(),
                          cwe="CWE-1", category="FC")
        ctx = RunContext.create()
        prediction = FuzzDetector(max_execs=5).predict([broken], ctx)
        assert prediction.verdicts == [0]


class TestBuildDetector:
    def test_registry_names(self):
        assert build_detector("sevuldet").name == "SEVulDet"
        assert build_detector("flawfinder").name == "Flawfinder"
        assert build_detector("afl").name == "AFL"
        with pytest.raises(ValueError):
            build_detector("nope")

    def test_default_lineup_covers_families(self):
        lineup = default_detectors(scale=TINY)
        names = {detector.name for detector in lineup}
        assert "SEVulDet" in names  # the paper's system
        assert "SySeVR" in names  # a BRNN framework
        assert len(names & {"Flawfinder", "RATS", "Checkmarx",
                            "VUDDY"}) >= 2
        assert "AFL" in names


class _Exploding:
    name = "Exploding"

    def predict(self, cases, ctx):
        raise RuntimeError("boom")


class TestMatrixRunner:
    def test_grid_runs_and_errors_are_cells(self, corpus, tmp_path):
        train, test = corpus
        adapter = FixedCorpusAdapter("fixed", train, test)
        result = MatrixRunner(
            ["flawfinder", "rats", _Exploding()], [adapter],
            baseline="flawfinder", seed=5, out_dir=tmp_path,
            resamples=50).run()
        assert len(result.cells) == 3
        exploded = result.cell("Exploding", "fixed")
        assert not exploded.ok
        assert "boom" in exploded.error
        good = result.cell("flawfinder", "fixed")
        assert good.ok and good.metrics is not None
        # baseline comparison attached to every ok cell
        assert good.significance["delta"] == 0.0
        assert result.cell("rats", "fixed").significance is not None
        # artifacts on disk
        assert (tmp_path / "matrix_leaderboard.txt").exists()
        assert (tmp_path / "matrix_leaderboard.md").exists()
        payload = json.loads((tmp_path / "matrix.json").read_text())
        assert {cell["detector"] for cell in payload["cells"]} == \
            {"Flawfinder", "RATS", "Exploding"}

    def test_resume_uses_cached_cells(self, corpus, tmp_path):
        train, test = corpus
        adapter = FixedCorpusAdapter("fixed", train, test)
        first = MatrixRunner(["flawfinder"], [adapter], seed=5,
                             out_dir=tmp_path, resamples=20).run()

        class _NeverCalled:
            name = "Flawfinder"

            def predict(self, cases, ctx):
                raise AssertionError("cache should have been used")

        second = MatrixRunner([_NeverCalled()], [adapter], seed=5,
                              out_dir=tmp_path, resamples=20).run()
        assert second.cells[0].to_json() == first.cells[0].to_json()

    def test_no_resume_recomputes(self, corpus, tmp_path):
        train, test = corpus
        adapter = FixedCorpusAdapter("fixed", train, test)
        MatrixRunner(["flawfinder"], [adapter], seed=5,
                     out_dir=tmp_path, resamples=20).run()
        calls = []

        class _Counting:
            name = "Flawfinder"

            def predict(self, cases, ctx):
                calls.append(len(cases))
                return Prediction(detector=self.name,
                                  verdicts=[0] * len(cases),
                                  scores=[0.0] * len(cases))

        MatrixRunner([_Counting()], [adapter], seed=5,
                     out_dir=tmp_path, resume=False, resamples=20).run()
        assert calls  # recomputed despite the cached cell

    def test_corrupt_cell_artifact_recomputed(self, corpus, tmp_path):
        train, test = corpus
        adapter = FixedCorpusAdapter("fixed", train, test)
        MatrixRunner(["flawfinder"], [adapter], seed=5,
                     out_dir=tmp_path, resamples=20).run()
        cell_file = next((tmp_path / "cells").iterdir())
        cell_file.write_text("{ torn", encoding="utf-8")
        result = MatrixRunner(["flawfinder"], [adapter], seed=5,
                              out_dir=tmp_path, resamples=20).run()
        assert result.cells[0].ok
        assert json.loads(cell_file.read_text())["status"] == "ok"

    def test_dataset_column_shares_split(self, tmp_path):
        # two detectors in one column must see identical test cases —
        # the alignment paired_bootstrap depends on
        seen = {}

        class _Spy:
            def __init__(self, name):
                self.name = name

            def predict(self, cases, ctx):
                seen[self.name] = [case.name for case in cases]
                return Prediction(detector=self.name,
                                  verdicts=[0] * len(cases),
                                  scores=[0.0] * len(cases))

        MatrixRunner([_Spy("a"), _Spy("b")], [SardAdapter(8, 6)],
                     seed=3, resamples=0).run()
        assert seen["a"] == seen["b"]

    def test_leaderboard_renders_error_rows(self, corpus):
        train, test = corpus
        adapter = FixedCorpusAdapter("fixed", train, test)
        result = MatrixRunner([_Exploding(), "flawfinder"], [adapter],
                              baseline="flawfinder", seed=5,
                              resamples=0).run()
        text = result.leaderboard().render()
        assert "error: RuntimeError: boom" in text
        assert "baseline" in text
        markdown = result.leaderboard().markdown()
        assert markdown.startswith("## Benchmark matrix")


class TestPredictionMetrics:
    def test_case_basis_uses_labels(self):
        prediction = Prediction(detector="x", verdicts=[1, 0, 1, 0],
                                scores=[1.0, 0.0, 1.0, 0.0])
        metrics = prediction.metrics([1, 0, 0, 1])
        assert metrics.accuracy == 0.5

    def test_gadget_basis_uses_gadget_labels(self):
        prediction = Prediction(
            detector="x", verdicts=[1], scores=[0.9], basis="gadget",
            gadget_scores=[0.9, 0.2, 0.8], gadget_labels=[1, 0, 0],
            threshold=0.5)
        metrics = prediction.metrics([1])
        # decisions 1/0/1 vs labels 1/0/0 -> one false positive
        assert metrics.accuracy == pytest.approx(2 / 3)
        # case-level view still available
        assert prediction.case_metrics([1]).accuracy == 1.0
