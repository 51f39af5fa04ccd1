"""Tests for the framework registry and for train-then-score runs
through the Detector protocol."""

import pytest

from repro.core.config import Scale
from repro.core.context import RunContext
from repro.datasets.sard import generate_sard_corpus
from repro.eval.comparison import FRAMEWORKS
from repro.eval.detector import FrameworkDetector, StaticToolDetector

TINY = Scale("tiny", cases_per_experiment=20, dim=8, channels=8,
             hidden=8, epochs=3, batch_size=16, time_steps=20,
             w2v_epochs=1, learning_rate=5e-3)


class TestFrameworkSpecs:
    def test_all_paper_systems_registered(self):
        assert {"VulDeePecker", "SySeVR", "SEVulDet"} <= set(FRAMEWORKS)

    def test_vuldeepecker_is_fc_only_data_only(self):
        spec = FRAMEWORKS["VulDeePecker"]
        assert spec.categories == ("FC",)
        assert not spec.use_control
        assert spec.gadget_kind == "classic"

    def test_sysevr_uses_control(self):
        spec = FRAMEWORKS["SySeVR"]
        assert spec.use_control
        assert spec.categories is None

    def test_sevuldet_is_path_sensitive(self):
        assert FRAMEWORKS["SEVulDet"].gadget_kind == "path-sensitive"


def _fit_and_score(framework, train, test, **options):
    """Train ``framework`` on ``train`` and score ``test`` through the
    Detector protocol; (test metrics, the fitted detector)."""
    detector = FrameworkDetector(framework, TINY, seed=1, **options)
    ctx = RunContext.create()
    detector.fit(train, ctx)
    prediction = detector.predict(test, ctx)
    return prediction.metrics(_labels(test)), detector


def _labels(cases):
    return [1 if case.vulnerable else 0 for case in cases]


class TestTrainAndEvaluate:
    """Train-then-score runs through :class:`FrameworkDetector`."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return (generate_sard_corpus(24, seed=51),
                generate_sard_corpus(10, seed=52))

    def test_sevuldet_runs_end_to_end(self, corpora):
        train, test = corpora
        metrics, detector = _fit_and_score("SEVulDet", train, test)
        assert 0.0 <= metrics.f1 <= 1.0
        assert len(detector.dataset.samples) > 0

    def test_fixed_length_framework_runs(self, corpora):
        train, test = corpora
        metrics, _ = _fit_and_score("SySeVR", train, test)
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_gadget_kind_override(self, corpora):
        train, test = corpora
        _, detector = _fit_and_score("BLSTM", train, test,
                                     gadget_kind="path-sensitive")
        assert detector.dataset.gadgets[0].kind == "path-sensitive"

    def test_category_override(self, corpora):
        train, test = corpora
        _, detector = _fit_and_score("SEVulDet", train, test,
                                     categories=("AU",))
        assert all(g.category == "AU" for g in detector.dataset.gadgets)

    def test_empty_gadgets_raises(self):
        with pytest.raises(ValueError, match="no gadgets"):
            FrameworkDetector("SEVulDet", TINY).fit(
                [], RunContext.create())


class TestStaticToolEvaluation:
    def test_perfect_oracle_tool(self):
        cases = generate_sard_corpus(20, seed=53)

        class Oracle:
            name = "Oracle"

            def flags(self, source):
                return any(c.source == source and c.vulnerable
                           for c in cases)

        prediction = StaticToolDetector(Oracle()).predict(
            cases, RunContext.create())
        assert prediction.metrics(_labels(cases)).accuracy == 1.0

    def test_always_negative_tool(self):
        cases = generate_sard_corpus(20, seed=54)

        class Mute:
            name = "Mute"

            def flags(self, source):
                return False

        metrics = StaticToolDetector(Mute()).predict(
            cases, RunContext.create()).metrics(_labels(cases))
        assert metrics.fpr == 0.0
        assert metrics.fnr == 1.0
