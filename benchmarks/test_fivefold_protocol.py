"""The paper's five-fold cross-validation protocol, end to end.

Section IV-B evaluates with gadget-level five-fold CV; the comparison
benches use disjoint train/test corpora instead (cheaper and closer to
deployment).  This bench runs the literal paper protocol once for the
SEVulDet network and reports per-fold and aggregate numbers, verifying
that fold variance is moderate and the mean matches the train/test
estimates within a few points.
"""

from repro.core.extract import extract_gadgets
from repro.eval.protocol import cross_validate
from repro.models.sevuldet import SEVulDetNet

from conftest import run_once


def test_fivefold_protocol(benchmark, reporter, scale, train_cases):
    def experiment():
        gadgets = extract_gadgets(train_cases)

        def build(vocab_size, pretrained):
            return SEVulDetNet(vocab_size, dim=scale.dim,
                               channels=scale.channels,
                               pretrained=pretrained, seed=5)

        return cross_validate(gadgets, build, scale=scale, k=5, seed=5)

    report = run_once(benchmark, experiment)

    table = reporter("fivefold_protocol",
                     "Five-fold CV (the paper's Section IV-B protocol), "
                     "SEVulDet network")
    for fold in report.folds:
        table.add(fold=fold.fold, test_gadgets=fold.test_size,
                  **fold.metrics.as_percentages())
    table.add(fold="mean", test_gadgets="-", **report.summary())
    table.save_and_print()

    # Every fold learns; aggregate is solid; fold variance is bounded.
    for fold in report.folds:
        assert fold.metrics.f1 > 0.5, fold
    assert report.mean_f1 > 0.7
    assert report.std_f1 < 0.15
