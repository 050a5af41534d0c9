"""Shared helpers for the benchmark harness.

Every table/figure bench regenerates its artefact once (pedantic mode:
these are minutes-scale simulations, not microseconds), prints the
paper-style rows, and saves them under ``benchmarks/results/``.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: pathlib.Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
