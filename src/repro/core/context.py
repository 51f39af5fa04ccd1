"""Run-wide services and fault budget for one logical run.

A fit, a scan sweep or a cross-validation protocol draws its gadget
cache, quarantine, telemetry, checkpoint directory and fault budget
(case timeout, worker count, retries) from one :class:`RunContext`
instead of threading five loose keyword arguments through every call.
:meth:`RunContext.extractor` is the one place a context becomes
extraction arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..datasets.manifest import TestCase
from .extract import (CorpusExtractor, LabeledGadget, _coerce_cache,
                      _make_config)
from .resilience import CaseFailure, Quarantine, coerce_quarantine
from .telemetry import Telemetry

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Run-wide services and fault budget.

    One context per logical run: extraction reads its
    cache/quarantine/telemetry from it, failure records accumulate on
    it, and sharing one context across several extractions (e.g. the
    cells of an evaluation matrix) shares the warm cache and the
    accumulated counters.

    Build instances with :meth:`create`, which coerces the convenience
    forms (cache directory path, quarantine JSONL path) the CLI deals
    in; the raw constructor expects already-coerced objects.
    """

    cache: Any = None  # GadgetCache | None
    quarantine: Quarantine | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    checkpoint_dir: Path | None = None
    case_timeout: float | None = None
    workers: int = 0
    retries: int = 1
    resume: bool = False
    failures: list[CaseFailure] = field(default_factory=list)

    @classmethod
    def create(cls, *, cache=None, quarantine=None,
               telemetry: Telemetry | None = None,
               checkpoint_dir: str | Path | None = None,
               case_timeout: float | None = None, workers: int = 0,
               retries: int = 1, resume: bool = False,
               failures: list[CaseFailure] | None = None
               ) -> "RunContext":
        """Coercing constructor: accepts a cache directory path for
        ``cache``, a JSONL path for ``quarantine``, and None for
        ``telemetry``/``failures`` (fresh instances are made)."""
        return cls(
            cache=_coerce_cache(cache),
            quarantine=coerce_quarantine(quarantine),
            telemetry=telemetry if telemetry is not None else Telemetry(),
            checkpoint_dir=(Path(checkpoint_dir)
                            if checkpoint_dir is not None else None),
            case_timeout=case_timeout,
            workers=workers,
            retries=retries,
            resume=resume,
            failures=failures if failures is not None else [])

    def extractor(self, kind: str = "path-sensitive",
                  categories: tuple[str, ...] | None = None, *,
                  use_control: bool = True,
                  fn_cache=None) -> CorpusExtractor:
        """A :class:`CorpusExtractor` over this context's cache,
        quarantine, telemetry and fault budget.

        ``fn_cache`` is the scan service's per-function incremental
        cache.  Close the extractor (or use it as a context manager)
        to release its process pool.
        """
        config = _make_config(kind, categories, use_control=use_control,
                              keep_gadget=False,
                              case_timeout=self.case_timeout)
        return CorpusExtractor(
            config, workers=self.workers, cache=self.cache,
            quarantine=self.quarantine, telemetry=self.telemetry,
            retries=self.retries, fn_cache=fn_cache)

    def extract_gadgets(self, cases: Sequence[TestCase],
                        kind: str = "path-sensitive",
                        categories: tuple[str, ...] | None = None, *,
                        use_control: bool = True
                        ) -> list[LabeledGadget]:
        """Steps I-III over ``cases`` through this context: the same
        deduplicated gadget list :func:`~repro.core.extract.extract_gadgets`
        returns, with failures appended to :attr:`failures`."""
        with self.extractor(kind, categories,
                            use_control=use_control) as extractor:
            return extractor.gadgets(cases, self.failures)
