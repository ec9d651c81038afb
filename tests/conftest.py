"""Shared pytest hooks and fixtures: the criterion-1 graph corpus, a
counter of calls into fractions.py, a traced memory peak, and acceptance
verdicts collected for a summary."""
from __future__ import annotations

import fractions
import sys
import tracemalloc
from collections import Counter

import pytest

from negflow.cycles import TwoCycleShape
from negflow.generators import gen_fig1, gen_fig3, gen_random
from negflow.graph import WeightedDigraph

CRITERION_RESULTS: dict[int, tuple[bool, str]] = {}


@pytest.fixture(scope="session")
def graph_corpus() -> list[WeightedDigraph]:
    graphs = []
    for i in range(200):
        graphs.append(gen_random(4 + i % 3, 5 + i % 8, (-3, 3), 1000 + i))
    graphs.append(gen_fig1(TwoCycleShape.EDGE_DISJOINT))
    graphs.append(gen_fig1(TwoCycleShape.THREE_PATH))
    graphs.extend(gen_fig3(k) for k in (1, 2, 3))
    return graphs


def _fraction_calls(fn):
    """Run ``fn`` under a profile hook; count its calls into fractions.py
    by function name."""
    calls: Counter[str] = Counter()

    def hook(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.fixture
def fraction_calls():
    """``fraction_calls(fn)`` runs ``fn`` and returns its result with a
    Counter of its calls into fractions.py by function name."""
    return _fraction_calls


def _peak_bytes(fn):
    """Run ``fn``; return its result and the peak of memory that
    ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)`` runs ``fn`` and returns its result with the peak
    of traced memory in bytes."""
    return _peak_bytes


def record_criterion(number: int, passed: bool, detail: str) -> None:
    CRITERION_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(
    terminalreporter: pytest.TerminalReporter,
    exitstatus: int,
    config: pytest.Config,
) -> None:
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_RESULTS):
        passed, detail = CRITERION_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")
