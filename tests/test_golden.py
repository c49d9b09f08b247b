"""Golden regression fixtures: pinned score vectors for every method.

``tests/fixtures/golden/`` commits a small frozen citation network
(with author and venue metadata, so the metadata-hungry baselines run
too) together with the score vector each golden method produced when
the fixture was generated.  This test recomputes the scores and fails
with a per-method diff when any numerical path drifts — solver
changes, operator refactors, or method re-implementations all have to
*intentionally* regenerate the fixture
(``tests/fixtures/golden/regenerate.py``) rather than drift silently.

Comparisons use a tight tolerance (rtol 1e-9 / atol 1e-12) instead of
bit equality: libm differences across platforms can legitimately move
the last bits of ``exp``/``log``-derived values, and the point of the
fixture is catching algorithmic drift, not glibc upgrades.  Rankings,
however, must match exactly.

``panels.json`` pins the tuning protocol the same way: two comparison
panels over the frozen network, re-run through the experiment engine at
one and two worker processes.  Every sweep value must match at the same
tolerance, and every cell's best params and every winner exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.baselines import make_method
from repro.eval.metrics import SpearmanRho
from repro.graph.citation_network import CitationNetwork
from repro.parallel import ExperimentEngine
from repro.ranking import ranking_from_scores

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden"
)

RTOL = 1e-9
ATOL = 1e-12


def _load_json(name: str):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_network() -> CitationNetwork:
    payload = _load_json("network.json")
    return CitationNetwork(
        paper_ids=payload["paper_ids"],
        publication_times=payload["publication_times"],
        citing=payload["citing"],
        cited=payload["cited"],
        paper_authors=[tuple(a) for a in payload["paper_authors"]],
        paper_venues=payload["paper_venues"],
    )


@pytest.fixture(scope="module")
def golden_scores() -> dict[str, np.ndarray]:
    return {
        label: np.asarray(values, dtype=np.float64)
        for label, values in _load_json("scores.json").items()
    }


def test_fixture_shape(golden_network, golden_scores):
    """The fixture itself must stay internally consistent."""
    assert golden_network.n_papers == 120
    assert golden_network.has_authors and golden_network.has_venues
    assert set(golden_scores) == {"AR", "PR", "CR", "FR", "WSDM", "RAM", "ECM"}
    for label, vector in golden_scores.items():
        assert vector.shape == (golden_network.n_papers,), label
        assert np.all(np.isfinite(vector)), label


@pytest.mark.parametrize(
    "label", ["AR", "PR", "CR", "FR", "WSDM", "RAM", "ECM"]
)
def test_method_matches_golden(label, golden_network, golden_scores):
    expected = golden_scores[label]
    actual = make_method(label).scores(golden_network)
    if not np.allclose(actual, expected, rtol=RTOL, atol=ATOL):
        diff = np.abs(actual - expected)
        worst = np.argsort(-diff)[:5]
        lines = [
            f"{label}: scores drifted from the golden fixture "
            f"(max abs diff {diff.max():.3e} at "
            f"{int(np.argmax(diff))}, {int((diff > ATOL).sum())} of "
            f"{diff.size} entries beyond atol).",
            "worst entries (index: golden -> recomputed):",
        ]
        lines += [
            f"  {int(i)} ({golden_network.id_of(int(i))}): "
            f"{expected[i]!r} -> {actual[i]!r}"
            for i in worst
        ]
        lines.append(
            "If this change is intentional, regenerate via "
            "PYTHONPATH=src python tests/fixtures/golden/regenerate.py"
        )
        pytest.fail("\n".join(lines))
    # Even inside tolerance, the induced ranking must not move at all.
    np.testing.assert_array_equal(
        ranking_from_scores(actual),
        ranking_from_scores(expected),
        err_msg=f"{label}: ranking permutation drifted",
    )


@pytest.fixture(scope="module")
def golden_panels() -> dict:
    return _load_json("panels.json")


def _assert_panel_matches(panel, expected) -> None:
    assert panel.metric == expected["metric"]
    assert list(panel.x_values) == expected["x_values"]
    assert [panel.winner_at(x) for x in panel.x_values] == expected["winners"]
    assert list(panel.cells) == list(expected["cells"])
    for method, cells in panel.cells.items():
        for x, cell, pinned in zip(
            panel.x_values, cells, expected["cells"][method]
        ):
            where = f"{method} at {x:g}"
            assert dict(cell.result.best_params) == pinned["best_params"], where
            sweep = [entry.score for entry in cell.result.sweep]
            assert len(sweep) == len(pinned["sweep"]), where
            np.testing.assert_allclose(
                sweep, pinned["sweep"], rtol=RTOL, atol=ATOL, err_msg=where
            )
            np.testing.assert_allclose(
                cell.result.best_score, pinned["best_score"],
                rtol=RTOL, atol=ATOL, err_msg=where,
            )


@pytest.mark.parametrize("jobs", [1, 2])
def test_ratio_panel_matches_golden(jobs, golden_network, golden_panels):
    expected = golden_panels["ratios"]
    panel = ExperimentEngine(jobs=jobs).compare_over_ratios(
        golden_network,
        dataset="golden",
        metric=SpearmanRho(),
        test_ratios=tuple(expected["x_values"]),
    )
    _assert_panel_matches(panel, expected)


@pytest.mark.parametrize("jobs", [1, 2])
def test_k_panel_matches_golden(jobs, golden_network, golden_panels):
    expected = golden_panels["k"]
    panel = ExperimentEngine(jobs=jobs).compare_over_k(
        golden_network,
        dataset="golden",
        test_ratio=1.6,
        k_values=tuple(int(k) for k in expected["x_values"]),
    )
    _assert_panel_matches(panel, expected)
