"""Benchmark harness glue.

Every bench regenerates one of the paper's tables/figures and registers
the rendered ResultTables here; a ``pytest_terminal_summary`` hook prints
them after the pytest-benchmark timing table, and a copy is written to
``benchmarks/out/<name>.txt`` so results survive the terminal.

The shared ``BENCH_SCALE`` keeps the full suite laptop-sized: it keeps
the paper's swept values and their ratios and divides the sizes by 40, so
trends survive the shrink.  Run the experiment runners via
``repro-setdisc experiment <id> --scale paper`` for paper-sized inputs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ResultTable, Scale

#: One shared scale for all benches: paper sizes / 40, trees <= 400 sets.
BENCH_SCALE = Scale("bench", 40, max_sets=400)

_REPORTS: list[tuple[str, list[ResultTable]]] = []
_OUT_DIR = Path(__file__).parent / "out"


def report_tables(name: str, tables: list[ResultTable]) -> None:
    """Register rendered experiment tables for the terminal summary."""
    _REPORTS.append((name, tables))
    _OUT_DIR.mkdir(exist_ok=True)
    text = "\n\n".join(t.render() for t in tables)
    (_OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def bench_scale() -> Scale:
    return BENCH_SCALE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper tables and figures (reproduced)")
    for name, tables in _REPORTS:
        for table in tables:
            terminalreporter.write_line("")
            for line in table.render().splitlines():
                terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(copies written to {_OUT_DIR}/<experiment>.txt)"
    )
