"""Table II (RQ1) — does path semantics + flexible length help?

Grid: {BLSTM, BGRU, SEVulDet-net} x {CG, PS-CG}, run as one benchmark
matrix over the shared SARD+NVD corpus: each (network, kind) pair is a
:class:`FrameworkDetector` row and the corpus is one
:class:`FixedCorpusAdapter` column, so this file only asserts over
matrix cells.  Paper shape:
* PS-CG beats CG for every network (path semantics help);
* the flexible-length SEVulDet network on PS-CG is the best cell
  (paper: A 97.3 / P 96.2 / F1 94.2).
"""

from repro.datasets.adapters import FixedCorpusAdapter
from repro.eval.comparison import FRAMEWORKS
from repro.eval.detector import FrameworkDetector
from repro.eval.matrix import MatrixRunner

from conftest import run_once

GRID = [("BLSTM", "classic"), ("BLSTM", "path-sensitive"),
        ("BGRU", "classic"), ("BGRU", "path-sensitive"),
        ("SEVulDet", "classic"), ("SEVulDet", "path-sensitive")]

PAPER = {
    ("BLSTM", "classic"): (94.9, 82.5, 85.2),
    ("BLSTM", "path-sensitive"): (95.1, 87.8, 88.8),
    ("BGRU", "classic"): (96.0, 84.1, 85.9),
    ("BGRU", "path-sensitive"): (97.0, 88.6, 90.7),
    ("SEVulDet", "classic"): (95.4, 91.0, 89.6),
    ("SEVulDet", "path-sensitive"): (97.3, 96.2, 94.2),
}


def _row_name(network: str, kind: str) -> str:
    return f"{network}-{'PSCG' if kind == 'path-sensitive' else 'CG'}"


def test_table2_rq1_path_semantics(benchmark, reporter, scale,
                                   train_cases, test_cases):
    def experiment():
        detectors = [
            FrameworkDetector(FRAMEWORKS[network], scale, seed=17,
                              gadget_kind=kind,
                              name=_row_name(network, kind))
            for network, kind in GRID
        ]
        runner = MatrixRunner(
            detectors,
            [FixedCorpusAdapter("sard", train_cases, test_cases)],
            baseline=_row_name("SEVulDet", "path-sensitive"),
            seed=17, resamples=200)
        return runner.run()

    result = run_once(benchmark, experiment)

    for cell in result.cells:
        assert cell.ok, (cell.detector, cell.error)
    results = {
        (network, kind): result.cell(_row_name(network, kind),
                                     "sard").metrics
        for network, kind in GRID
    }

    table = reporter("table2_rq1",
                     "Table II — RQ1: CG vs PS-CG across networks")
    for network, kind in GRID:
        metrics = results[(network, kind)]
        paper_a, paper_p, paper_f1 = PAPER[(network, kind)]
        row = metrics.as_percentages()
        table.add(network=network,
                  kind="PS-CG" if kind == "path-sensitive" else "CG",
                  **{k: row[k] for k in ("A(%)", "P(%)", "F1(%)")},
                  paper_A=paper_a, paper_P=paper_p, paper_F1=paper_f1)
    table.save_and_print()

    # Shape 1: PS-CG >= CG on F1 for every network.
    for network in ("BLSTM", "BGRU", "SEVulDet"):
        ps = results[(network, "path-sensitive")].f1
        cg = results[(network, "classic")].f1
        assert ps >= cg - 0.02, (network, ps, cg)

    # Shape 2: the best cell is the SEVulDet network on PS-CG.
    best = max(results, key=lambda key: results[key].f1)
    assert results[("SEVulDet", "path-sensitive")].f1 >= \
        results[best].f1 - 0.03

    # Shape 3: SEVulDet x PS-CG beats both BRNNs on CG by a clear
    # margin (the combined contribution of the paper).
    assert results[("SEVulDet", "path-sensitive")].f1 > \
        results[("BLSTM", "classic")].f1
    assert results[("SEVulDet", "path-sensitive")].f1 > \
        results[("BGRU", "classic")].f1
