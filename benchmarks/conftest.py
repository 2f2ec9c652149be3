"""Benchmark-suite configuration.

Each ``bench_*`` module regenerates one of the paper's tables/figures.
``pytest benchmarks/ --benchmark-only`` runs them all and prints the
paper-style result tables; JSON copies land in ``benchmarks/results/``
for EXPERIMENTS.md.

Workload sizes are chosen so the whole suite completes in minutes of
wall-clock; the shapes (who wins, by what factor, where crossovers sit)
are stable at these sizes.  Crank the ``*_OPS`` constants in
``repro.analysis.experiments`` for higher-fidelity runs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


# One experiment run feeds several tests: Figures 8/9/10 are three views
# of the same runs (likewise 12/13/14), and the Figure 3 and Figure 11
# grids feed both their own figure and the Figure 11 vs Figure 3
# overhead-reduction comparison.  Session-scoped fixtures compute each
# grid once per suite run; nothing is kept between runs.
@pytest.fixture(scope="session")
def pmemkv_table():
    from repro.analysis import figure8_to_10_pmemkv

    return figure8_to_10_pmemkv()


@pytest.fixture(scope="session")
def micro_table():
    from repro.analysis import figure12_to_14_micro

    return figure12_to_14_micro()


@pytest.fixture(scope="session")
def whisper_table():
    from repro.analysis import figure11_whisper

    return figure11_whisper()


@pytest.fixture(scope="session")
def software_table():
    from repro.analysis import figure3_software_encryption

    return figure3_software_encryption()
