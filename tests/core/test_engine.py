"""Equivalence and behavior tests for the streaming stage engine.

The engine's contract is that chunked, prefetch-threaded execution
produces outputs *byte-identical* to the serial one-shot pipeline
functions — same gadgets in the same order, same trained weights,
same scores.  Everything here asserts exact equality.
"""

import numpy as np
import pytest

from repro.core.cache import GadgetCache
from repro.core.encode import encode_gadgets
from repro.core.engine import (EncodeStage, Engine, ExtractStage,
                               RunContext, ScoreStage, Stage,
                               TrainResult, TrainStage)
from repro.core.extract import CaseResult, extract_gadgets
from repro.core.resilience import Quarantine
from repro.core.score import predict_proba
from repro.core.telemetry import Telemetry
from repro.core.train import train_classifier
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(40, seed=17)


@pytest.fixture(scope="module")
def reference_gadgets(corpus):
    return extract_gadgets(corpus)


def build_net(dataset):
    model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8,
                        pretrained=dataset.word2vec.vectors, seed=3)
    dataset.bind_embedding_aliases(model)
    return model


def state_of(model):
    return {key: value.copy()
            for key, value in model.state_dict().items()}


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


class TestExtractEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunked_extraction_matches_one_shot(
            self, corpus, reference_gadgets, chunk_size):
        chunks = Engine(ExtractStage(),
                        chunk_size=chunk_size).run(corpus)
        gadgets = [g for chunk in chunks for g in chunk]
        assert gadgets == reference_gadgets

    def test_dedup_is_stateful_across_chunks(self, corpus,
                                             reference_gadgets):
        # chunk_size=1 puts every case in its own chunk; cross-case
        # duplicates must still be dropped exactly like the one-shot
        # corpus-order dedup does
        ctx = RunContext.create()
        chunks = Engine(ExtractStage(), ctx=ctx, chunk_size=1
                        ).run(corpus)
        gadgets = [g for chunk in chunks for g in chunk]
        assert gadgets == reference_gadgets
        reference_telemetry = Telemetry()
        extract_gadgets(corpus, telemetry=reference_telemetry)
        assert (ctx.telemetry.get("gadgets_emitted")
                == reference_telemetry.get("gadgets_emitted"))
        assert (ctx.telemetry.get("dedup_hits")
                == reference_telemetry.get("dedup_hits"))

    def test_streaming_off_matches_streaming_on(self, corpus):
        on = Engine(ExtractStage(), chunk_size=8,
                    streaming=True).run(corpus)
        off = Engine(ExtractStage(), chunk_size=8,
                     streaming=False).run(corpus)
        assert on == off

    def test_per_case_results_carry_case_identity(self, corpus):
        chunks = Engine(ExtractStage(deduplicate=False, per_case=True),
                        chunk_size=8).run(corpus)
        results = [r for chunk in chunks for r in chunk]
        assert all(isinstance(r, CaseResult) for r in results)
        assert [r.case.name for r in results] == \
            [case.name for case in corpus]

    def test_cache_rides_the_context(self, corpus, tmp_path):
        ctx = RunContext.create(cache=tmp_path / "cache")
        Engine(ExtractStage(), ctx=ctx, chunk_size=8).run(corpus)
        assert ctx.telemetry.get("cache_misses") == len(corpus)
        warm = RunContext.create(cache=tmp_path / "cache")
        Engine(ExtractStage(), ctx=warm, chunk_size=8).run(corpus)
        assert warm.telemetry.get("cache_hits") == len(corpus)


class TestEncodeAndTrainEquivalence:
    def test_engine_dataset_matches_one_shot_encode(
            self, corpus, reference_gadgets):
        expected = encode_gadgets(reference_gadgets, dim=8,
                                  w2v_epochs=1, seed=13)
        dataset = Engine(ExtractStage(),
                         EncodeStage(dim=8, w2v_epochs=1, seed=13),
                         chunk_size=8).run(corpus)
        assert len(dataset.samples) == len(expected.samples)
        for ours, theirs in zip(dataset.samples, expected.samples):
            assert np.array_equal(ours.token_ids, theirs.token_ids)
            assert ours.label == theirs.label
        assert np.array_equal(dataset.word2vec.vectors,
                              expected.word2vec.vectors)

    def test_engine_trained_weights_match_serial_path(
            self, corpus, reference_gadgets):
        expected_dataset = encode_gadgets(reference_gadgets, dim=8,
                                          w2v_epochs=1, seed=13)
        expected_model = build_net(expected_dataset)
        train_classifier(expected_model, expected_dataset.samples,
                         epochs=2, batch_size=16, lr=3e-3, seed=5)

        result = Engine(ExtractStage(),
                        EncodeStage(dim=8, w2v_epochs=1, seed=13),
                        TrainStage(build_net, epochs=2,
                                   batch_size=16, lr=3e-3, seed=5),
                        chunk_size=8).run(corpus)
        assert isinstance(result, TrainResult)
        left, right = state_of(result.model), state_of(expected_model)
        assert sorted(left) == sorted(right)
        for key in left:
            assert np.array_equal(left[key], right[key]), key

    def test_empty_corpus_raises(self):
        engine = Engine(ExtractStage(),
                        EncodeStage(dim=8, w2v_epochs=0, seed=13))
        with pytest.raises(ValueError, match="no gadgets"):
            engine.run([])


class TestScoreEquivalence:
    def test_engine_scores_match_serial_chunk_scoring(
            self, reference_gadgets):
        dataset = encode_gadgets(reference_gadgets, dim=8,
                                 w2v_epochs=0, seed=13)
        model = build_net(dataset)
        # The engine guarantee: threading chunks through ScoreStage
        # (and its prefetch boundary) is bit-equal to calling
        # predict_proba on the same chunks serially.
        expected = np.concatenate(
            [predict_proba(model,
                           [g.sample(dataset.vocab)
                            for g in reference_gadgets[i:i + 5]])
             for i in range(0, len(reference_gadgets), 5)])

        chunks = Engine(ScoreStage(model, dataset.vocab),
                        chunk_size=5).run(reference_gadgets)
        scores = np.concatenate([s for _, s in chunks])
        gadgets = [g for g_chunk, _ in chunks for g in g_chunk]
        assert gadgets == reference_gadgets
        assert np.array_equal(scores, expected)
        # and within float tolerance of the one-shot full-corpus pass
        # (bitwise identity across *different* batch compositions is a
        # BLAS property we do not promise)
        one_shot = predict_proba(
            model, [g.sample(dataset.vocab) for g in reference_gadgets])
        assert np.allclose(scores, one_shot, atol=1e-6)

    def test_score_stage_has_no_pool_mode(self, reference_gadgets):
        dataset = encode_gadgets(reference_gadgets[:5], dim=8,
                                 w2v_epochs=0, seed=13)
        with pytest.raises(TypeError):
            ScoreStage(build_net(dataset), dataset.vocab, workers=2)


class _Boom(Stage):
    name = "boom"
    streaming = True

    def __init__(self):
        self.closed = False

    def process(self, chunk, ctx):
        raise RuntimeError("boom")

    def close(self, ctx):
        self.closed = True


class TestEngineMechanics:
    def test_stage_error_propagates_through_prefetch(self, corpus):
        boom = _Boom()
        tail = ExtractStage()
        engine = Engine(boom, tail, chunk_size=4)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(corpus[:8])
        assert boom.closed  # stages are closed even on failure

    def test_run_requires_stages(self):
        with pytest.raises(ValueError):
            Engine()

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            Engine(ExtractStage(), chunk_size=0)

    def test_stream_is_lazy(self, corpus):
        consumed = []

        class Probe(Stage):
            streaming = True

            def process(self, chunk, ctx):
                consumed.append(len(chunk))
                return chunk

        stream = Engine(Probe(), chunk_size=4,
                        streaming=False).stream(corpus)
        assert consumed == []  # nothing ran before iteration
        next(stream)
        assert consumed == [4]
        stream.close()


class TestPrefetchCleanup:
    """Regression: abandoning an ``Engine.stream`` generator used to
    close the stages while the ``_Prefetch`` pump thread could still
    be blocked on ``queue.put`` against a full queue — leaking the
    thread and racing the closed ``CorpusExtractor``."""

    @staticmethod
    def _prefetch_threads():
        import threading

        return [t for t in threading.enumerate()
                if t.name == "engine-prefetch" and t.is_alive()]

    def _assert_pumps_exit(self):
        import time

        deadline = time.time() + 5.0
        while self._prefetch_threads():
            assert time.time() < deadline, (
                f"leaked pump thread(s): {self._prefetch_threads()}")
            time.sleep(0.01)

    def test_early_break_joins_pump_threads(self, corpus):
        assert not self._prefetch_threads()

        class Identity(Stage):
            name = "identity"
            streaming = True

            def process(self, chunk, ctx):
                return chunk

        # chunk_size 1 + prefetch 1: the pump fills the queue and
        # blocks on put long before the consumer drains 40 chunks.
        engine = Engine(ExtractStage(per_case=True), Identity(),
                        chunk_size=1, prefetch=1)
        stream = engine.stream(corpus)
        next(stream)
        stream.close()  # early abandon, as ScanService's callers may
        self._assert_pumps_exit()

    def test_early_break_in_for_loop(self, corpus):
        engine = Engine(ExtractStage(per_case=True), chunk_size=1,
                        prefetch=1)
        for i, _chunk in enumerate(engine.stream(corpus)):
            if i == 1:
                break
        self._assert_pumps_exit()

    def test_exhausted_stream_leaves_no_threads(self, corpus):
        engine = Engine(ExtractStage(per_case=True), chunk_size=8)
        chunks = list(engine.stream(corpus[:16]))
        assert len(chunks) == 2
        self._assert_pumps_exit()

    def test_closed_prefetch_unblocks_downstream_pump(self, corpus):
        """A two-boundary chain: closing the upstream prefetch must
        wake a downstream pump blocked in its ``__next__``."""

        class Slow(Stage):
            name = "slow"
            streaming = True

            def process(self, chunk, ctx):
                return chunk

        engine = Engine(ExtractStage(per_case=True), Slow(), Slow(),
                        chunk_size=1, prefetch=1)
        stream = engine.stream(corpus)
        next(stream)
        stream.close()
        self._assert_pumps_exit()
