"""Tests for :class:`repro.core.context.RunContext`.

The context is the one mapping from run-wide services to extraction
arguments: extracting through it must give exactly what the one-shot
``extract_gadgets`` gives, with the cache, telemetry and failure list
riding along.
"""

import pytest

from repro.core.cache import GadgetCache
from repro.core.config import SCALE_PRESETS
from repro.core.context import RunContext
from repro.core.detector import SEVulDet
from repro.core.extract import extract_gadgets
from repro.core.resilience import Quarantine
from repro.core.telemetry import Telemetry
from repro.datasets.manifest import TestCase
from repro.datasets.sard import generate_sard_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(24, seed=17)


def broken_case():
    return TestCase(name="broken.c", source="not C at all {{{",
                    vulnerable=False, vulnerable_lines=frozenset(),
                    cwe="", category="", origin="test")


class TestRunContext:
    def test_create_coerces_paths(self, tmp_path):
        ctx = RunContext.create(cache=tmp_path / "cache",
                                quarantine=tmp_path / "q.jsonl",
                                checkpoint_dir=str(tmp_path / "ckpt"))
        assert isinstance(ctx.cache, GadgetCache)
        assert isinstance(ctx.quarantine, Quarantine)
        assert ctx.checkpoint_dir == tmp_path / "ckpt"
        assert isinstance(ctx.telemetry, Telemetry)
        assert ctx.failures == []

    def test_create_passes_objects_through(self, tmp_path):
        telemetry = Telemetry()
        quarantine = Quarantine(tmp_path / "q.jsonl")
        ctx = RunContext.create(telemetry=telemetry,
                                quarantine=quarantine)
        assert ctx.telemetry is telemetry
        assert ctx.quarantine is quarantine
        assert ctx.cache is None
        assert ctx.checkpoint_dir is None

    def test_contexts_do_not_share_mutable_defaults(self):
        first, second = RunContext.create(), RunContext.create()
        assert first.failures is not second.failures
        assert first.telemetry is not second.telemetry


class TestExtractThroughContext:
    def test_matches_one_shot_extract_gadgets(self, corpus):
        reference_telemetry = Telemetry()
        expected = extract_gadgets(corpus, kind="classic",
                                   categories=("FC",),
                                   use_control=False,
                                   telemetry=reference_telemetry)
        ctx = RunContext.create()
        gadgets = ctx.extract_gadgets(corpus, "classic", ("FC",),
                                      use_control=False)
        assert gadgets == expected
        for counter in ("gadgets_emitted", "dedup_hits",
                        "cases_total"):
            assert ctx.telemetry.get(counter) \
                == reference_telemetry.get(counter), counter

    def test_failures_accumulate_on_the_context(self, corpus):
        ctx = RunContext.create()
        ctx.extract_gadgets(list(corpus[:3]) + [broken_case()])
        assert [f.case_name for f in ctx.failures] == ["broken.c"]

    def test_cache_rides_the_context(self, corpus, tmp_path):
        cold = RunContext.create(cache=tmp_path / "cache")
        expected = cold.extract_gadgets(corpus)
        assert cold.telemetry.get("cache_misses") == len(corpus)
        warm = RunContext.create(cache=tmp_path / "cache")
        assert warm.extract_gadgets(corpus) == expected
        assert warm.telemetry.get("cache_hits") == len(corpus)

    def test_extractor_keeps_its_pool_until_closed(self, corpus):
        ctx = RunContext.create(workers=2)
        with ctx.extractor() as extractor:
            first = extractor.run(corpus[:8])
            pool = extractor._pool
            assert pool is not None
            second = extractor.run(corpus[8:16])
            assert extractor._pool is pool
        assert extractor._pool is None
        with RunContext.create().extractor() as extractor:
            serial = extractor.run(corpus[:16])
        assert [r.gadgets for r in first + second] \
            == [r.gadgets for r in serial]


class TestFitThroughContext:
    def test_empty_corpus_raises(self):
        detector = SEVulDet(scale=SCALE_PRESETS["small"])
        with pytest.raises(ValueError, match="no gadgets"):
            detector.fit([])

    def test_fit_reports_to_the_given_context(self, corpus):
        detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
        ctx = RunContext.create()
        detector.fit(list(corpus) + [broken_case()], epochs=1, ctx=ctx)
        assert detector.extraction_failures is ctx.failures
        assert [f.case_name for f in ctx.failures] == ["broken.c"]
        for stage in ("extract", "train"):
            assert ctx.telemetry.seconds(stage) > 0, stage
