"""Seeded inputs for the two workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical inputs (see :func:`digest`), another seed gives
different ones.  The program under test only ever sees the generated
cases, files and edits.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass

import numpy as np

from repro.core.fingerprint import lexer_function_spans
from repro.datasets import (TestCase, derive_seed, generate_nvd_corpus,
                            generate_sard_corpus)
from repro.lang import TokenKind, tokenize

#: The scan model: trained once per source tree by the code under
#: test (SARD cases, fixed seed), independent of the workload seed.
MODEL_CASES = 80
MODEL_SEED = 31

#: SARD generation is stratified round-robin over the 18 CWE
#: templates, so multiples of 18 give every template the same weight
#: and keep the corpus size (lines, gadgets) steady across seeds.
SCAN_SARD = 108
SCAN_NVD = 27
TREE_FILES = 24
#: Programs per tree file: two SARD-style and one NVD-style program,
#: each its own call component after prefixing.
TREE_SARD_PER_FILE = 2
TREE_NVD_PER_FILE = 1


def digest(items) -> str:
    """sha256 over ``(name, source)`` of cases or ``(rel, text)`` pairs."""
    sha = hashlib.sha256()
    for name, text in items:
        sha.update(name.encode("utf-8") + b"\x00")
        sha.update(text.encode("utf-8") + b"\x01")
    return sha.hexdigest()


def case_items(cases: list[TestCase]):
    return [(case.name, case.source) for case in cases]


def model_corpus() -> list[TestCase]:
    return generate_sard_corpus(MODEL_CASES, seed=MODEL_SEED)


def scan_corpus(seed: int) -> list[TestCase]:
    """Short SARD-style and long multi-function NVD-style cases,
    interleaved so service batches mix both shapes."""
    sard = generate_sard_corpus(SCAN_SARD, seed=derive_seed(seed, "scan",
                                                            "sard"))
    nvd = generate_nvd_corpus(SCAN_NVD, seed=derive_seed(seed, "scan",
                                                         "nvd"))
    order = np.random.default_rng(derive_seed(seed, "scan", "order"))
    cases = sard + nvd
    return [cases[int(i)] for i in order.permutation(len(cases))]


@dataclass(frozen=True)
class TreeProgram:
    """One generated program inside a tree file."""

    prefix: str
    vulnerable: bool


@dataclass
class Tree:
    """A source tree whose files each hold several call components."""

    files: dict[str, str]
    programs: dict[str, list[TreeProgram]]


def _prefixed(source: str, prefix: str) -> str:
    """Rename every function the program defines (definitions and
    calls) so concatenated programs stay independent components."""
    names = sorted({span.name for span in lexer_function_spans(source)},
                   key=len, reverse=True)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda m: prefix + m.group(1), source)


def _nvd_sinks(source: str) -> int:
    """Sinks of an NVD-style program: its dispatcher routes on
    ``n % sinks``."""
    return int(re.search(r"= n % (\d+);", source).group(1))


def _even_nvd(count: int, seed: int) -> list[TestCase]:
    """``count`` NVD-style programs, alternately with two and three
    sinks.  The generator draws two or three sinks per program with
    equal odds; taking them in exactly equal shares keeps the size of
    a tree, and so the rescan timings, from swinging with the seed."""
    by_sinks: dict[int, list[TestCase]] = {2: [], 3: []}
    for case in generate_nvd_corpus(3 * count, seed=seed):
        by_sinks[_nvd_sinks(case.source)].append(case)
    return [by_sinks[2 + index % 2][index // 2] for index in range(count)]


def rescan_tree(seed: int) -> Tree:
    """``TREE_FILES`` files, each a concatenation of independent
    generated programs with per-program function prefixes."""
    sard = generate_sard_corpus(TREE_FILES * TREE_SARD_PER_FILE,
                                seed=derive_seed(seed, "rescan", "sard"))
    nvd = _even_nvd(TREE_FILES * TREE_NVD_PER_FILE,
                    derive_seed(seed, "rescan", "nvd"))
    files: dict[str, str] = {}
    programs: dict[str, list[TreeProgram]] = {}
    for index in range(TREE_FILES):
        members = (sard[index * TREE_SARD_PER_FILE:
                        (index + 1) * TREE_SARD_PER_FILE]
                   + nvd[index * TREE_NVD_PER_FILE:
                         (index + 1) * TREE_NVD_PER_FILE])
        rel = f"pkg{index % 4}/unit_{index:02d}.c"
        parts, info = [], []
        for slot, case in enumerate(members):
            prefix = f"u{index}p{slot}_"
            parts.append(_prefixed(case.source, prefix).rstrip("\n"))
            info.append(TreeProgram(prefix, case.vulnerable))
        files[rel] = "\n\n".join(parts) + "\n"
        programs[rel] = info
    return Tree(files, programs)


def edit_stream(seed: int, tree: Tree):
    """Endless seeded sequence of single-function edits to ``tree``.

    Each edit rewrites one integer literal inside one function body to
    another value.  No line is added or removed, so no other
    function's fingerprint moves: the edit invalidates exactly one
    call component of the file.  Edit ``k`` goes to program slot
    ``k mod programs-per-file`` of a random file, so every run edits
    short SARD-style and long NVD-style components in the same
    proportion.  Yields ``(rel, new_text)`` and keeps ``tree.files``
    current.
    """
    rng = np.random.default_rng(derive_seed(seed, "rescan", "edits"))
    files = tree.files
    names = sorted(files)
    slots = TREE_SARD_PER_FILE + TREE_NVD_PER_FILE
    for k in itertools.count():
        while True:
            rel = names[int(rng.integers(len(names)))]
            prefix = tree.programs[rel][k % slots].prefix
            text = files[rel]
            bodies = [span for span in lexer_function_spans(text)
                      if span.name.startswith(prefix)
                      and span.end_line > span.start_line]
            span = bodies[int(rng.integers(len(bodies)))]
            literals = [tok for tok in tokenize(text)
                        if tok.kind is TokenKind.NUMBER
                        and tok.text.isdigit()
                        and span.start_line < tok.line < span.end_line]
            if literals:
                break
        tok = literals[int(rng.integers(len(literals)))]
        value = tok.text
        while value == tok.text:
            value = str(int(rng.integers(1, 100)))
        lines = text.split("\n")
        line = lines[tok.line - 1]
        col = tok.col - 1
        lines[tok.line - 1] = line[:col] + value + line[col + len(tok.text):]
        files[rel] = "\n".join(lines)
        yield rel, files[rel]
