"""End-to-end integration tests spanning every subsystem.

These assert the *paper-level* behaviours: the Fig 1 identity, learning
separating vulnerable from patched programs, the static-tool ordering,
and the CVE detection matrix — each on small, CI-sized corpora.
"""

import numpy as np
import pytest

from repro.baselines.afl import AFLFuzzer
from repro.baselines.checkmarx import CheckmarxScanner
from repro.baselines.flawfinder import FlawfinderScanner
from repro.core.config import Scale
from repro.core.context import RunContext
from repro.core.detector import SEVulDet
from repro.core.extract import extract_gadgets
from repro.datasets.sard import generate_sard_corpus
from repro.datasets.xen import CVE_CASES, generate_xen_corpus
from repro.eval.detector import StaticToolDetector
from repro.lang.interp import run_program

SMALLISH = Scale("smallish", cases_per_experiment=70, dim=16,
                 channels=16, hidden=16, epochs=16, batch_size=16,
                 time_steps=40, w2v_epochs=2)


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SMALLISH, seed=11)
    xen_templates = [case for case in generate_xen_corpus(50, seed=778)
                     if "cve" not in case.meta]
    det.fit(generate_sard_corpus(220, seed=61) + xen_templates)
    return det


class TestLearnedDetection:
    def test_generalises_to_unseen_programs(self, detector):
        held_out = generate_sard_corpus(30, seed=62)
        correct = 0
        for case in held_out:
            if detector.flags_case(case) == case.vulnerable:
                correct += 1
        assert correct / len(held_out) > 0.7

    def test_beats_lexical_scanner_on_program_verdicts(self, detector):
        held_out = generate_sard_corpus(30, seed=63)

        class Wrapper:
            name = "SEVulDet"

            def flags(self, source):
                findings = detector.detect(source)
                return bool(findings)

        labels = [1 if case.vulnerable else 0 for case in held_out]

        def program_metrics(tool):
            return StaticToolDetector(tool).predict(
                held_out, RunContext.create()).metrics(labels)

        learned = program_metrics(Wrapper())
        lexical = program_metrics(FlawfinderScanner())
        dataflow = program_metrics(CheckmarxScanner())
        assert learned.f1 > lexical.f1
        assert learned.f1 > dataflow.f1


class TestGroundTruthConsistency:
    def test_labels_match_execution_oracle(self):
        """Gadget labels derive from manifests; manifests derive from
        templates; templates were validated against the interpreter.
        Spot-check the chain end to end."""
        cases = generate_sard_corpus(10, seed=64)
        gadgets = extract_gadgets(cases)
        by_case = {}
        for gadget in gadgets:
            by_case.setdefault(gadget.case_name, []).append(gadget)
        for case in cases:
            has_vulnerable_gadget = any(
                g.label == 1 for g in by_case.get(case.name, []))
            if case.vulnerable:
                assert has_vulnerable_gadget, case.name
            else:
                assert not has_vulnerable_gadget, case.name


class TestCVEMatrix:
    """Table VII's detection matrix, shrunk to CI size."""

    def test_sevuldet_detects_all_three(self, detector):
        for cve, build in CVE_CASES.items():
            case = build(vulnerable=True)
            gadgets = extract_gadgets([case], deduplicate=False)
            scores = detector.score_gadgets(gadgets)
            # the three CVE shapes exist in the training distribution
            # (infinite-loop and overflow templates), so the detector
            # should rank at least one gadget per case above 0.5
            assert scores.max() > 0.5, cve

    def test_afl_finds_two_of_three(self):
        found = {}
        for cve, build in CVE_CASES.items():
            report = AFLFuzzer(build(vulnerable=True).source,
                               max_execs=500, max_steps=4000,
                               seed=5).run()
            found[cve] = report.found_anything
        assert found["CVE-2016-9776"]
        assert found["CVE-2016-4453"]
        assert not found["CVE-2016-9104"]


class TestOracleEndToEnd:
    def test_interpreter_validates_detector_finding(self, detector):
        """Close the loop: a finding the detector reports corresponds
        to a program the interpreter can actually crash."""
        from repro.datasets.cwe_templates import TEMPLATES, generate_case
        template = next(t for t in TEMPLATES
                        if t.name == "strcpy_stack_overflow")
        case = generate_case(template, vulnerable=True, seed=777)
        assert detector.flags_case(case)
        result = run_program(case.source, stdin=b"A" * 60 + b"\n",
                             max_steps=20_000)
        assert result.crashed
