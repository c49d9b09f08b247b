"""Regenerate the golden regression fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/golden/regenerate.py

Writes three files next to this script:

* ``network.json`` — a frozen ~120-paper citation network with author
  and venue metadata (a chronological prefix of the seeded synthetic
  DBLP corpus, flattened to plain JSON so the fixture no longer
  depends on the generator staying fixed);
* ``scores.json`` — the score vector of every golden method
  (AR/PR/CR/FR/WSDM/RAM/ECM at registry-default parameters) over that
  network, serialised as JSON numbers (Python float serialisation
  round-trips ``float64`` exactly);
* ``panels.json`` — two tuned comparison panels over that network:
  ``compare_over_ratios`` at test ratios 1.4 and 1.6 with Spearman's
  rho, and ``compare_over_k`` at ratio 1.6 with k in {5, 10, 50}.  Each
  cell keeps every sweep value (in grid order) and its best params, and
  each x position its winning method.

``tests/test_golden.py`` recomputes the scores from ``network.json``
and fails with a per-method diff if any numerical path drifts, and
re-runs both panels at one and two worker processes.  Only
regenerate after an *intentional* change to a scoring path, and say so
in the commit message — these fixtures exist to make silent drift
impossible.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.baselines import make_method
from repro.eval.experiment import (
    ComparisonSeries,
    compare_over_k,
    compare_over_ratios,
)
from repro.eval.metrics import SpearmanRho
from repro.graph.citation_network import CitationNetwork
from repro.synth.profiles import generate_dataset

HERE = os.path.dirname(os.path.abspath(__file__))

#: The golden method lineup (registry labels, default parameters).
GOLDEN_METHODS = ("AR", "PR", "CR", "FR", "WSDM", "RAM", "ECM")

#: Papers kept from the seeded corpus (its index order is chronological).
PREFIX = 120

#: The test ratios of the Spearman panel.
PANEL_RATIOS = (1.4, 1.6)

#: The test ratio and cut-offs of the nDCG@k panel.
PANEL_K_RATIO = 1.6
PANEL_K_VALUES = (5, 10, 50)


def frozen_network() -> CitationNetwork:
    """The chronological prefix of the seeded DBLP corpus."""
    corpus = generate_dataset("dblp", size="tiny", seed=42)
    return corpus.subnetwork(np.arange(PREFIX))


def network_to_payload(network: CitationNetwork) -> dict:
    return {
        "paper_ids": list(network.paper_ids),
        "publication_times": [float(t) for t in network.publication_times],
        "citing": [int(i) for i in network.citing],
        "cited": [int(i) for i in network.cited],
        "paper_authors": [
            list(authors) for authors in (network.paper_authors or ())
        ],
        "paper_venues": [int(v) for v in network.paper_venues],
    }


def panel_to_payload(panel: ComparisonSeries) -> dict:
    """Every sweep value, best params and winner of one panel."""
    return {
        "metric": panel.metric,
        "x_label": panel.x_label,
        "x_values": list(panel.x_values),
        "winners": [panel.winner_at(x) for x in panel.x_values],
        "cells": {
            method: [
                {
                    "best_params": dict(cell.result.best_params),
                    "best_score": cell.result.best_score,
                    "sweep": [entry.score for entry in cell.result.sweep],
                }
                for cell in cells
            ]
            for method, cells in panel.cells.items()
        },
    }


def golden_panels(network: CitationNetwork) -> dict:
    """The two tuned panels ``panels.json`` pins."""
    return {
        "ratios": panel_to_payload(
            compare_over_ratios(
                network,
                dataset="golden",
                metric=SpearmanRho(),
                test_ratios=PANEL_RATIOS,
            )
        ),
        "k": panel_to_payload(
            compare_over_k(
                network,
                dataset="golden",
                test_ratio=PANEL_K_RATIO,
                k_values=PANEL_K_VALUES,
            )
        ),
    }


def main() -> None:
    network = frozen_network()
    with open(
        os.path.join(HERE, "network.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(network_to_payload(network), handle, indent=1)
        handle.write("\n")

    scores = {
        label: [float(s) for s in make_method(label).scores(network)]
        for label in GOLDEN_METHODS
    }
    with open(
        os.path.join(HERE, "scores.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(scores, handle, indent=1)
        handle.write("\n")
    with open(
        os.path.join(HERE, "panels.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(golden_panels(network), handle, indent=1)
        handle.write("\n")
    print(
        f"froze {network.n_papers} papers / {network.n_citations} "
        f"citations, {len(GOLDEN_METHODS)} score vectors and two "
        "tuned panels"
    )


if __name__ == "__main__":
    main()
