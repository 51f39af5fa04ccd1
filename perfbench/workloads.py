"""The ``scan`` and ``rescan`` workloads.

Each workload function sets up (timed, several times), runs its
measured operation until the run's window closes, and then checks the
program's outputs outside the timed section.  One caller drives all
load from this process; the program's own concurrency stays at the CLI
defaults (:data:`SERVICE`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
from repro.core.cache import FunctionGadgetCache
from repro.core.config import current_scale
from repro.core.detector import SEVulDet
from repro.core.diffscan import WatchLoop
from repro.core.serve import ScanService, case_for_file

#: The CLI's scan defaults (``repro scan``): two scorer workers,
#: batches of 64, the default thread scorer.
SERVICE = {"workers": 2, "batch_size": 64}
#: Set-ups before the window opens; each round of the window then
#: repeats set-up (untimed for the round's own metrics), so the
#: ``setup_s`` samples spread over the whole run instead of sitting
#: in one burst of host load.
SETUP_REPEATS = 5
MIN_PASSES = 3
COLD_REPEATS = 3
#: At least 100 edits, so at least ten samples lie beyond the p90.
MIN_EDITS = 100
#: Edits between two cold polls of the pristine tree.
EDIT_BLOCK = 25
TRACE_EDITS = 30
IDLE_POLLS = 20


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


@dataclass
class Run:
    """One run's measurements, before they become metrics."""

    seed: int
    seconds: float
    work: Path
    cache: Path
    source_digest: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    #: Per-operation latencies, one group per scan pass (``scan``) or
    #: one group for the whole session (``rescan``).
    latency_groups: list[list[float]] = field(default_factory=list)
    f1: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def item(self, latency: float | None, why: str = "") -> None:
        """Count one operation.  A failed one (``latency`` None) is
        charged the whole window, so it counts against the latency
        percentiles instead of dropping out of them."""
        self.attempted += 1
        if latency is None:
            self.failed += 1
            log(f"failed: {why}")
            latency = self.seconds
        if not self.latency_groups:
            self.latency_groups.append([])
        self.latency_groups[-1].append(latency)

    def check(self, ok: bool, why: str) -> None:
        """Count one correctness check that has no latency."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"failed: {why}")


class Window:
    """A run's measured window.  Another round starts only while a
    round of the median length so far would still end before the
    deadline, so a run does not overshoot its window by a whole round
    and every run measures about the same span of time."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.rounds: list[float] = []

    def lap(self) -> None:
        """Mark the end of one round."""
        now = time.perf_counter()
        self.rounds.append(now - self.start)
        self.start = now

    def open(self) -> bool:
        if not self.rounds:
            return time.perf_counter() < self.deadline
        return time.perf_counter() + statistics.median(self.rounds) \
            <= self.deadline


def timed_setup(run: Run, make, repeats: int = SETUP_REPEATS):
    """Run ``make`` ``repeats`` times; keep the last result.
    Each repeat starts from a collected heap, so a garbage collection
    left over from the one before does not land in its time."""
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = make()
        run.setup_s.append(time.perf_counter() - start)
    return result


def scan_detector(run: Run) -> SEVulDet:
    """The scan model, trained by the code under test.

    Trained once per source tree: the archive is cached under a key
    covering the source digest, the model corpus, its seed and the
    scale preset, and loaded on every later set-up.
    """
    key = hashlib.sha256(
        f"{run.source_digest}|{inputs.MODEL_CASES}|{inputs.MODEL_SEED}|"
        f"{current_scale().name}".encode()).hexdigest()[:24]
    path = run.cache / f"scan-model-{key}.npz"
    if not path.exists():
        run.cache.mkdir(parents=True, exist_ok=True)
        trainer = SEVulDet(seed=inputs.MODEL_SEED)
        trainer.fit(inputs.model_corpus())
        trainer.save(path)
    detector = SEVulDet()
    detector.load(path)
    return detector


def f1_score(pairs) -> float:
    """F1 over ``(truth, predicted)`` pairs."""
    tp = fp = fn = 0
    for truth, predicted in pairs:
        tp += truth and predicted
        fp += predicted and not truth
        fn += truth and not predicted
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def finding_keys(findings) -> tuple:
    """A verdict's findings without their scores, in a fixed order:
    bitwise score drift (which can also swap two findings of nearly
    equal score) is reported apart from verdict mismatches."""
    return tuple(sorted((f.function, f.line, f.category)
                        for f in findings))


def finding_scores(findings) -> tuple:
    return tuple((f.function, f.line, f.category, f.score)
                 for f in findings)


def serial_reference(detector: SEVulDet, cases):
    """Serial ``detect_case`` over ``cases``: name -> findings, wall."""
    start = time.perf_counter()
    findings = {case.name: detector.detect_case(case) for case in cases}
    return findings, time.perf_counter() - start


def stream(service: ScanService, cases):
    """Scan ``cases`` through ``service``.  Returns the verdicts with
    each one's time-to-verdict from the start of the stream (a short
    list when the stream raised), and the stream's wall time."""
    got = []
    start = time.perf_counter()
    try:
        for verdict in service.scan_stream(cases):
            got.append((verdict, time.perf_counter() - start))
    except Exception:  # noqa: BLE001 - counted as failed, reported
        traceback.print_exc(file=sys.stderr)
    return got, time.perf_counter() - start


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def multi_component_share(sources) -> tuple[float, int]:
    sources = list(sources)
    multi = sum(1 for source in sources
                if layers.component_count(source) > 1)
    return (multi / len(sources) if sources else 0.0), len(sources)


def serve_metrics(stats: dict, wall: float, serial_s: float,
                  verdicts, reference) -> dict[str, float]:
    """Service-layer metrics from ``ScanService.stats()``, with their
    bases.  ``serial_s`` is serial ``detect_case`` over the cases the
    service scanned in ``wall``; ``verdicts`` are compared with the
    serial ``reference`` findings for bitwise score drift."""
    mismatches = sum(
        1 for verdict in verdicts
        if finding_keys(verdict.findings)
        == finding_keys(reference[verdict.name])
        and finding_scores(verdict.findings)
        != finding_scores(reference[verdict.name]))
    fill = stats["batch_fill"]
    depth = stats["queue_depth"]
    latency = stats["latency_seconds"]
    return {
        "serve.batches": float(stats["batches"]),
        "serve.batch_fill_mean": fill.get("mean", 0.0),
        "serve.queue_depth_max": depth.get("max", 0.0),
        "serve.case_latency_p50_ms": 1000.0 * latency.get("p50", 0.0),
        "serve.serial_s": serial_s,
        "serve.wall_s": wall,
        "serve.parallel_efficiency": serial_s / wall,
        "serve.cases": float(len(verdicts)),
        "serve.score_mismatches": float(mismatches),
    }


def idle_poll_ms(loop: WatchLoop) -> float:
    """Median wall of ``poll()`` on an unchanged tree."""
    times = []
    for _ in range(IDLE_POLLS):
        start = time.perf_counter()
        loop.poll()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def cold_idle_poll_ms(detector: SEVulDet, files: dict[str, str],
                      root: Path) -> float:
    """:func:`idle_poll_ms` on a fresh tree of ``files``, after the
    first (cold, untimed) poll has scanned it."""
    write_tree(root, files)
    with ScanService(detector, **SERVICE) as service:
        loop = WatchLoop(service, root)
        loop.poll()
        return idle_poll_ms(loop)


def fn_cache_metrics(hits: int, misses: int) -> dict[str, float]:
    lookups = hits + misses
    return {"fn_cache.hits": float(hits),
            "fn_cache.lookups": float(lookups),
            "fn_cache.hit_ratio": hits / lookups if lookups else 0.0}


# -- scan --------------------------------------------------------------------

def check_scan(run: Run, cases, got, reference) -> None:
    """Count each case of one scan, as one latency group: ok when it
    has a verdict whose findings (function, line, category) equal
    serial ``detect_case``; skipped, missing or different verdicts
    fail."""
    run.latency_groups.append([])
    for index, case in enumerate(cases):
        if index >= len(got):
            run.item(None, f"{case.name}: no verdict")
            continue
        verdict, latency = got[index]
        if verdict.status == "skipped":
            run.item(None, f"{case.name}: skipped ({verdict.reason})")
        elif finding_keys(verdict.findings) \
                != finding_keys(reference[case.name]):
            run.item(None, f"{case.name}: verdict differs from serial "
                           f"detect_case")
        else:
            run.item(latency)


def scan(run: Run) -> None:
    """CI sweep: one caller streams the corpus through a fresh
    ``ScanService`` per pass (no extraction or verdict cache)."""

    def make():
        cases = inputs.scan_corpus(run.seed)
        detector = scan_detector(run)
        ScanService(detector, **SERVICE).close()
        return cases, detector

    cases, detector = timed_setup(run, make)
    run.info["inputs"] = {
        "digest": inputs.digest(inputs.case_items(cases)),
        "cases": len(cases),
        "lines": sum(case.source.count("\n") + 1 for case in cases)}
    reference, serial_s = serial_reference(detector, cases)
    window = Window(run.seconds)
    passes = 1 if run.trace else MIN_PASSES
    while len(run.cold_s) < passes or (not run.trace and window.open()):
        gc.collect()
        with ScanService(detector, **SERVICE) as service:
            got, wall = stream(service, cases)
            if run.trace:
                run.layer.update(serve_metrics(
                    service.stats(), wall, serial_s,
                    [v for v, _ in got], reference))
        run.cold_s.append(wall)
        check_scan(run, cases, got, reference)
        timed_setup(run, make, 1)
        window.lap()
    run.f1 = f1_score((case.vulnerable, verdict.flagged)
                      for case, (verdict, _) in zip(cases, got))
    run.info["scan_cases_per_s"] = len(cases) / statistics.median(run.cold_s)
    if run.trace:
        # No watch session here: the function cache is unused, and the
        # idle poll is measured on a tree of the corpus files.
        share, files = multi_component_share(c.source for c in cases)
        run.layer.update(layers.traced_replay(detector, cases,
                                              train_epochs=1))
        run.layer.update(fn_cache_metrics(0, 0))
        run.layer["rescan.multi_component_share"] = share
        run.layer["rescan.files"] = float(files)
        run.layer["diffscan.idle_poll_ms"] = cold_idle_poll_ms(
            detector, {c.name: c.source for c in cases}, run.work / "idle")


# -- rescan ------------------------------------------------------------------

def _unscored(record: dict) -> str:
    """A verdict record without its scores, as canonical JSON."""
    record = dict(record)
    record.pop("max_score")
    record["findings"] = sorted(
        json.dumps({k: v for k, v in finding.items() if k != "score"},
                   sort_keys=True)
        for finding in record["findings"])
    return json.dumps(record, sort_keys=True)


def rescan(run: Run) -> None:
    """Editor session, closed loop.  ``WatchLoop.poll()`` cold-scans
    the tree into a fresh ``FunctionGadgetCache``; then each seeded
    single-function edit is written and polled before the next.

    Blocks of edits alternate with cold polls of a pristine copy of
    the tree (fresh service and cache each), so both kinds of sample
    spread over the whole window.
    """

    def make():
        tree = inputs.rescan_tree(run.seed)
        detector = scan_detector(run)
        ScanService(detector, **SERVICE).close()
        return tree, detector

    tree, detector = timed_setup(run, make)
    root = run.work / "tree"
    pristine = run.work / "pristine"
    write_tree(root, tree.files)
    write_tree(pristine, tree.files)
    run.info["inputs"] = {
        "digest": inputs.digest(sorted(tree.files.items())),
        "files": len(tree.files),
        "lines": sum(t.count("\n") for t in tree.files.values())}
    cold_cases = [case_for_file(pristine / rel, name=rel)
                  for rel in sorted(tree.files)]
    with ScanService(detector, **SERVICE) as service:
        cold_verdicts = [v for v, _ in stream(service, cold_cases)[0]]
    expected = {v.name: v.as_record() for v in cold_verdicts}
    run.f1 = f1_score(
        (program.vulnerable,
         any(f["function"].startswith(program.prefix)
             for f in expected.get(rel, {}).get("findings", ())))
        for rel, programs in tree.programs.items()
        for program in programs)

    def cold_poll(tree_root: Path) -> tuple[ScanService, WatchLoop]:
        service = ScanService(
            detector, **SERVICE,
            fn_cache=FunctionGadgetCache(
                run.work / f"fn-cache-{len(run.cold_s)}"))
        loop = WatchLoop(service, tree_root)
        gc.collect()
        start = time.perf_counter()
        try:
            loop.poll()
        except Exception:  # noqa: BLE001 - counted as failed, reported
            traceback.print_exc(file=sys.stderr)
        run.cold_s.append(time.perf_counter() - start)
        for rel in sorted(tree.files):
            got = loop.verdicts.get(rel)
            run.check(got is not None and rel in expected
                      and _unscored(got) == _unscored(expected[rel]),
                      f"{rel}: cold poll differs from a no-cache scan")
        return service, loop

    window = Window(run.seconds)
    service, loop = cold_poll(root)  # the session's own first poll
    cold_wall = run.cold_s[-1]
    telemetry = service.telemetry
    hits0 = telemetry.get("fn_cache_hits")
    misses0 = telemetry.get("fn_cache_misses")

    edited = inputs.Tree(dict(tree.files), tree.programs)
    edits = inputs.edit_stream(run.seed, edited)
    stamp = time.time_ns()
    done = []
    while True:
        # The cold poll before this block left garbage behind; collect
        # it here so it does not land in the edits' latencies.
        gc.collect()
        for _ in range(TRACE_EDITS if run.trace else EDIT_BLOCK):
            rel, text = next(edits)
            path = root / rel
            stamp = max(stamp + 1_000_000, time.time_ns())
            start = time.perf_counter()
            path.write_text(text)
            os.utime(path, ns=(stamp, stamp))
            try:
                loop.poll()
                latency = time.perf_counter() - start
            except Exception:  # noqa: BLE001 - counted as failed
                traceback.print_exc(file=sys.stderr)
                latency = None
            done.append((rel, text, loop.verdicts.get(rel), latency))
        if run.trace or (len(done) >= MIN_EDITS
                         and len(run.cold_s) >= COLD_REPEATS
                         and not window.open()):
            break
        cold_poll(pristine)[0].close()
        timed_setup(run, make, 1)
        window.lap()
    hits = telemetry.get("fn_cache_hits") - hits0
    misses = telemetry.get("fn_cache_misses") - misses0
    if run.trace:
        run.layer["diffscan.idle_poll_ms"] = idle_poll_ms(loop)
    watch_stats = service.stats()
    service.close()
    run.info["fn_cache_edit_hits"] = {"hits": hits,
                                      "lookups": hits + misses}

    # Gate: every edited version, scanned cold without any cache.
    # Records must match with scores stripped; records that match but
    # differ in a score are bitwise drift, counted apart.
    versions = run.work / "versions"
    cases = []
    for index, (rel, text, _, _) in enumerate(done):
        path = versions / f"{index:04d}" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        cases.append(case_for_file(path, name=rel))
    with ScanService(detector, **SERVICE) as fresh:
        got = [v for v, _ in stream(fresh, cases)[0]]
    drift = 0
    for index, (rel, _, record, latency) in enumerate(done):
        if latency is None:
            run.item(None, f"edit {index} of {rel}: poll raised")
            continue
        fresh_record = got[index].as_record() if index < len(got) else None
        if record is None or fresh_record is None \
                or _unscored(record) != _unscored(fresh_record):
            run.item(None, f"edit {index} of {rel}: verdict differs "
                           f"from a no-cache scan")
            continue
        drift += record != fresh_record
        run.item(latency)
    run.info["edit_score_drift"] = {"records": drift, "edits": len(done)}

    if run.trace:
        # Batch statistics are the watch session's (cold poll and
        # edits); score drift is checked on the no-cache tree scan.
        reference, serial_s = serial_reference(detector, cold_cases)
        run.layer.update(serve_metrics(watch_stats, cold_wall, serial_s,
                                       cold_verdicts, reference))
        share, count = multi_component_share(
            edited.files[rel] for rel in sorted({rel for rel, *_ in done}))
        run.layer.update(layers.traced_replay(detector, cold_cases,
                                              train_epochs=1))
        run.layer.update(fn_cache_metrics(hits, misses))
        run.layer["rescan.multi_component_share"] = share
        run.layer["rescan.files"] = float(count)


WORKLOADS = {"scan": scan, "rescan": rescan}
