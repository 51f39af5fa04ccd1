"""End-to-end tests for the batched scan service.

The load-bearing property is *verdict identity*: the micro-batching
scheduler may pack gadgets from many cases into shared batches, but
every verdict must match what a serial ``detector.detect_case`` loop
produces — same verdicts, findings and lines, with scores equal to
float32 rounding.  On a small corpus, where batches rarely mix cases,
the scores are pinned bit-equal as well; on a corpus large enough for
batches to mix, a score may move in its last float32 bit.  The rest
covers the result cache (warm re-scans are hits, config changes are
misses), quarantine/fault handling, and the CLI surface.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core import SCALE_PRESETS, Quarantine, SEVulDet
from repro.core.extract import CorpusExtractor
from repro.core.serve import CaseVerdict, ResultCache, ScanService
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    det.fit(generate_sard_corpus(80, seed=31))
    return det


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(30, seed=99)


class TestByteIdentity:
    def test_batched_matches_serial_detect_case(self, detector,
                                                corpus):
        serial = [detector.detect_case(case) for case in corpus]
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            verdicts = service.scan_cases(corpus)
        assert len(verdicts) == len(corpus)
        for case, verdict, findings in zip(corpus, verdicts, serial):
            assert verdict.name == case.name
            assert list(verdict.findings) == findings
            assert verdict.flagged == bool(findings)

    def test_identity_across_batching_configs(self, detector, corpus):
        reference = None
        for workers, batch_size in ((1, 1), (2, 8), (4, 64)):
            with ScanService(detector, workers=workers,
                             batch_size=batch_size) as service:
                records = [v.as_record()
                           for v in service.scan_cases(corpus)]
            if reference is None:
                reference = records
            else:
                assert records == reference

    def test_scores_match_serial_exactly(self, detector, corpus):
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            verdicts = service.scan_cases(corpus)
        for case, verdict in zip(corpus, verdicts):
            serial = detector.detect_case(case)
            for batched, single in zip(verdict.findings, serial):
                assert batched.score == single.score  # bit-equal

    def test_mixed_batches_match_serial_to_float32_rounding(
            self, detector):
        # 160 cases at batch 64: scorer batches really mix cases, so
        # BLAS sees other shapes than the serial loop and a score may
        # drift in its last float32 bit.  Verdicts, findings and lines
        # must still be identical.
        cases = generate_sard_corpus(160, seed=99)
        with ScanService(detector, workers=2,
                         batch_size=64) as service:
            verdicts = service.scan_cases(cases)
        drift = 0.0
        for case, verdict in zip(cases, verdicts):
            serial = detector.detect_case(case)
            assert verdict.flagged == bool(serial)
            batched = sorted((f.function, f.line, f.category, f.score)
                             for f in verdict.findings)
            single = sorted((f.function, f.line, f.category, f.score)
                            for f in serial)
            assert [b[:3] for b in batched] == [s[:3] for s in single]
            for b, s in zip(batched, single):
                drift = max(drift, abs(b[3] - s[3]))
        assert drift <= 1e-6


class TestResultCaching:
    def test_rescan_hits_result_cache(self, detector, corpus):
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            cold = service.scan_cases(corpus)
            warm = service.scan_cases(corpus)
            stats = service.stats()
        assert all(not v.cached for v in cold)
        assert all(v.cached for v in warm)
        assert [v.as_record() for v in warm] == \
            [v.as_record() for v in cold]
        # acceptance: >= 95% hit rate on the warm re-scan
        assert stats["result_cache"]["hit_rate"] >= 0.5  # 30/60 here
        assert stats["result_cache"]["hits"] == len(corpus)

    def test_threshold_change_invalidates_shared_cache(self, detector,
                                                       corpus):
        shared = ResultCache(capacity=64)
        with ScanService(detector, workers=1, batch_size=16,
                         result_cache=shared) as service:
            service.scan_cases(corpus[:5])
        original = detector.threshold
        detector.threshold = 0.11
        try:
            with ScanService(detector, workers=1, batch_size=16,
                             result_cache=shared) as service:
                changed = service.scan_cases(corpus[:5])
        finally:
            detector.threshold = original
        # same fingerprints, different config token: all misses
        assert all(not v.cached for v in changed)
        # restored config hits the entries the first service stored
        with ScanService(detector, workers=1, batch_size=16,
                         result_cache=shared) as service:
            restored = service.scan_cases(corpus[:5])
        assert all(v.cached for v in restored)

    def test_lru_capacity_and_eviction(self):
        cache = ResultCache(capacity=2)
        token = "cfg"
        for i in range(3):
            cache.put(f"fp{i}", token, CaseVerdict(
                name=f"c{i}", fingerprint=f"fp{i}", status="clean"))
        assert len(cache) == 2
        assert cache.get("fp0", token) is None  # evicted
        assert cache.get("fp2", token) is not None
        assert cache.get("fp1", token) is not None

    def test_config_token_separates_entries(self):
        cache = ResultCache(capacity=8)
        verdict = CaseVerdict(name="c", fingerprint="fp",
                              status="clean")
        cache.put("fp", "model-a", verdict)
        assert cache.get("fp", "model-b") is None
        assert cache.get("fp", "model-a") is verdict


class TestFailureHandling:
    def test_quarantined_case_is_skipped(self, detector, corpus,
                                         tmp_path):
        quarantine = Quarantine(tmp_path / "quarantine.jsonl")
        quarantine.add(corpus[0], "timeout", "seeded for test")
        detector.quarantine = quarantine
        try:
            with ScanService(detector, workers=1,
                             batch_size=16) as service:
                verdicts = service.scan_cases(corpus[:3])
        finally:
            detector.quarantine = None
        assert verdicts[0].status == "skipped"
        assert verdicts[0].reason == "quarantined"
        assert verdicts[1].status in ("flagged", "clean")
        record = verdicts[0].as_record()
        assert record["status"] == "skipped"
        assert record["findings"] == []

    def test_fault_injected_case_quarantined_scan_completes(
            self, detector, corpus, tmp_path):
        poisoned = corpus[1].name
        quarantine = Quarantine(tmp_path / "quarantine.jsonl")
        detector.quarantine = quarantine
        try:
            with faults.injected(f"raise@case:{poisoned}:MemoryError"):
                with ScanService(detector, workers=1,
                                 batch_size=16) as service:
                    verdicts = service.scan_cases(corpus[:4])
        finally:
            detector.quarantine = None
        assert verdicts[1].status == "skipped"
        assert verdicts[1].reason == "memory"
        assert corpus[1] in quarantine  # poisoned for next time
        # every other case still got a real verdict
        assert all(v.status in ("flagged", "clean")
                   for i, v in enumerate(verdicts) if i != 1)

    def test_zero_gadget_source_is_clean(self, detector):
        with ScanService(detector, workers=1,
                         batch_size=16) as service:
            verdict = service.scan_paths([])
            assert verdict == []
        # a source with no special tokens produces no gadgets
        from repro.datasets.manifest import TestCase
        trivial = TestCase(name="t.c",
                           source="int main() { return 0; }",
                           vulnerable=False,
                           vulnerable_lines=frozenset(), cwe="",
                           category="", origin="test")
        with ScanService(detector, workers=1,
                         batch_size=16) as service:
            verdict = service.scan_case(trivial)
        assert verdict.status == "clean"
        assert verdict.gadgets == 0
        assert verdict.max_score == 0.0


class TestServiceLifecycle:
    def test_closed_service_rejects_scans(self, detector, corpus):
        service = ScanService(detector, workers=1, batch_size=4)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.scan_cases(corpus[:1])
        service.close()  # idempotent

    def test_stats_shape(self, detector, corpus):
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            service.scan_cases(corpus[:5])
            stats = service.stats()
        assert stats["cases"] == 5
        assert stats["cases_per_sec"] > 0
        assert stats["scored_gadgets"] > 0
        assert stats["latency_seconds"]["count"] == 5
        assert 0 < stats["batch_fill"]["mean"] <= 1.0

    def test_missing_path_raises(self, detector, tmp_path):
        with ScanService(detector, workers=1,
                         batch_size=4) as service:
            with pytest.raises(FileNotFoundError):
                service.scan_paths([tmp_path / "nope.c"])

    def test_extraction_error_surfaces_and_service_recovers(
            self, detector, corpus, monkeypatch):
        real_run = CorpusExtractor.run
        calls = []

        def run_failing_once(self, cases, failures=None):
            calls.append(len(cases))
            if len(calls) == 1:
                raise RuntimeError("extractor exploded")
            return real_run(self, cases, failures)

        monkeypatch.setattr(CorpusExtractor, "run", run_failing_once)
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            with pytest.raises(RuntimeError, match="exploded"):
                service.scan_cases(corpus[:4])
            verdicts = service.scan_cases(corpus[:4])
        assert calls == [4, 4]  # the failed scan, then the retry
        serial = [detector.detect_case(case) for case in corpus[:4]]
        assert [list(v.findings) for v in verdicts] == serial

    def test_abandoned_stream_leaves_no_drain_thread(self, detector,
                                                     corpus):
        def drains():
            return [thread for thread in threading.enumerate()
                    if thread.name == "scan-extract-drain"]

        assert not drains()
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            stream = service.scan_stream(corpus)
            first = next(stream)
            stream.close()
            assert not drains()
        assert first.name == corpus[0].name


class TestScanCLI:
    @pytest.fixture(scope="class")
    def model_path(self, detector, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.npz"
        detector.save(path)
        return path

    def test_scan_directory_jsonl_and_stats(self, detector,
                                            model_path, corpus,
                                            tmp_path, capsys):
        from repro.cli import main

        src_dir = tmp_path / "src"
        src_dir.mkdir()
        for case in corpus[:4]:
            stem = case.name.rsplit("/", 1)[-1]
            (src_dir / stem).write_text(case.source)
        jsonl = tmp_path / "verdicts.jsonl"
        code = main(["scan", str(src_dir), "--model",
                     str(model_path), "--jsonl", str(jsonl),
                     "--workers", "2", "--batch-size", "8",
                     "--stats"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "scanned 4 case(s):" in out
        assert "result cache:" in out
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["status"] in ("flagged", "clean", "skipped")
                   for r in records)

    def test_warm_rescan_jsonl_byte_identical(self, model_path,
                                              corpus, tmp_path,
                                              capsys):
        from repro.cli import main

        target = tmp_path / "case.c"
        target.write_text(corpus[0].source)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        main(["scan", str(target), "--model", str(model_path),
              "--jsonl", str(first)])
        main(["scan", str(target), "--model", str(model_path),
              "--jsonl", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestConcurrentCallers:
    """Regression: ``scan_cases`` used to hold ``_submit_lock`` across
    the whole extract+submit pass, so one caller stuck in extraction
    serialized every other thread behind it.  The lock now covers only
    the cache-lookup/dedup bookkeeping."""

    def test_fast_caller_is_not_serialized_behind_slow_one(
            self, detector, corpus):
        slow_case, fast_case = corpus[0], corpus[1]
        results: dict[str, list] = {}
        with ScanService(detector, workers=1,
                         batch_size=4) as service:
            def scan(tag, case):
                results[tag] = service.scan_cases([case])

            with faults.injected(
                    f"hang@case:{slow_case.name}:6"):
                slow = threading.Thread(
                    target=scan, args=("slow", slow_case))
                slow.start()
                time.sleep(0.5)  # let the slow scan enter extraction
                fast = threading.Thread(
                    target=scan, args=("fast", fast_case))
                started = time.perf_counter()
                fast.start()
                fast.join(timeout=3.0)
                fast_seconds = time.perf_counter() - started
                stuck = fast.is_alive()
                slow.join(timeout=20.0)
        assert not stuck, (
            "concurrent caller waited on the submission lock for the "
            "whole extract pass")
        assert fast_seconds < 3.0
        assert results["fast"][0].status in ("flagged", "clean")
        assert results["slow"][0].status in ("flagged", "clean")

    def test_concurrent_callers_byte_identical(self, detector,
                                               corpus):
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            expected = [v.as_record()
                        for v in service.scan_cases(corpus)]
        outcomes: list[list] = [None] * 4
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            def scan(slot):
                outcomes[slot] = [v.as_record()
                                  for v in service.scan_cases(corpus)]

            threads = [threading.Thread(target=scan, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert all(records == expected for records in outcomes)

    def test_duplicate_fingerprints_are_single_flighted(
            self, detector, corpus):
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            baseline = service.scan_cases(corpus[:2])
            scored_unique = service.telemetry.get(
                "scan_scored_gadgets")
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            verdicts = service.scan_cases(
                [corpus[0], corpus[1], corpus[0], corpus[0]])
            assert service.telemetry.get("scan_dedup_hits") == 2
            # the duplicates were never re-extracted or re-scored
            assert (service.telemetry.get("scan_scored_gadgets")
                    == scored_unique)
        records = [v.as_record() for v in verdicts]
        assert records[0] == records[2] == records[3]
        assert records[0] == baseline[0].as_record()
        assert records[1] == baseline[1].as_record()


class TestScorerOptions:
    def test_removed_keywords_rejected(self, detector):
        # one scorer, float32 only, one default verdict-cache size:
        # removed options are gone, not silently ignored
        for option in ({"scorer": "thread"}, {"dtype": "float16"},
                       {"calibration": []}, {"restart_policy": None},
                       {"result_cache_size": 16}):
            with pytest.raises(TypeError):
                ScanService(detector, **option)
