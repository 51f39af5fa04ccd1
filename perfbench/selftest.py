"""Self-test of the benchmark itself (``run.py --self-test``).

* Input determinism: each workload's generated inputs have the same
  digest under one seed and a different digest under another.
* A poisoned input (an unparseable file) in a scan is counted as a
  failed operation, not raised.
* The output contract check names a missing, undeclared, non-finite
  or unitless metric.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import inputs
import workloads
from repro.core.serve import ScanService
from repro.datasets import TestCase, generate_sard_corpus


def _workload_digests(seed: int) -> dict[str, str]:
    tree = inputs.rescan_tree(seed)
    edited = inputs.Tree(dict(tree.files), tree.programs)
    edits = list(itertools.islice(inputs.edit_stream(seed, edited), 20))
    return {
        "scan": inputs.digest(inputs.case_items(inputs.scan_corpus(seed))),
        "rescan": inputs.digest(sorted(tree.files.items()) + edits),
    }


def check_determinism() -> list[str]:
    first, again, other = (_workload_digests(s) for s in (7, 7, 8))
    problems = []
    for name in first:
        if first[name] != again[name]:
            problems.append(f"{name}: one seed gave different inputs")
        if first[name] == other[name]:
            problems.append(f"{name}: two seeds gave the same inputs")
    return problems


def check_poisoned(run: workloads.Run) -> list[str]:
    detector = workloads.scan_detector(run)
    poison = TestCase(name="poison/unparseable.c",
                      source="int main( { return ]]] @@ ;\n",
                      vulnerable=False, vulnerable_lines=frozenset(),
                      cwe="", category="", origin="scan")
    cases = generate_sard_corpus(3, seed=5) + [poison]
    reference, _ = workloads.serial_reference(detector, cases)
    with ScanService(detector, **workloads.SERVICE) as service:
        got, _ = workloads.stream(service, cases)
    workloads.check_scan(run, cases, got, reference)
    if (run.attempted, run.failed) != (4, 1):
        return [f"poisoned scan counted attempted={run.attempted} "
                f"failed={run.failed}, expected 4 and 1"]
    return []


def check_contract(spec: dict, contract_problems) -> list[str]:
    def result(metrics):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}

    good = {m["name"]: {"value": 1.5, "unit": m["unit"]}
            for m in spec["end_to_end"]}
    problems = []
    if contract_problems(result(good), spec, False):
        problems.append("a well-formed result was refused")
    name = spec["end_to_end"][0]["name"]
    cases = {
        "missing": {k: v for k, v in good.items() if k != name},
        "undeclared": {**good, "bogus_metric": {"value": 1.0,
                                                "unit": "s"}},
        "not a finite": {**good, name: {"value": float("nan"),
                                        "unit": good[name]["unit"]}},
        "no unit": {**good, name: {"value": 1.0, "unit": ""}},
    }
    for phrase, metrics in cases.items():
        found = contract_problems(result(metrics), spec, False)
        if not any(phrase in problem for problem in found):
            problems.append(f"contract check missed a {phrase!r} metric")
    return problems


def main(spec: dict, contract_problems, work: Path, cache: Path,
         source_digest: str) -> int:
    run = workloads.Run(seed=0, seconds=1.0, work=work, cache=cache,
                        source_digest=source_digest, trace=False)
    problems = (check_determinism() + check_poisoned(run)
                + check_contract(spec, contract_problems))
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    if not problems:
        print("self-test ok: determinism, poisoned input, output contract")
    return 1 if problems else 0
