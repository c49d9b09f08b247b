"""Rank your own citation dataset with AttRank.

Demonstrates the full ingestion path on files you might have on disk:
builds a small corpus programmatically with NetworkBuilder, saves it as
a network file (the library's checksummed snapshot layout), reloads it,
and ranks it.  The same flow
works with the real-format loaders:

    from repro.io import load_hepth, load_aminer, load_csv_dataset
    network = load_hepth("cit-HepTh.txt", "cit-HepTh-dates.txt")
    network = load_aminer("dblp-citation-network.txt")
    network = load_csv_dataset("papers.csv", "citations.csv")

Run:  python examples/custom_dataset.py
"""

from __future__ import annotations

import os
import tempfile

from repro import AttRank, NetworkBuilder
from repro.analysis.reporting import format_table
from repro.io import load_network, save_network


def build_corpus() -> "NetworkBuilder":
    """A miniature field: two foundational papers, a survey, and a
    recent burst of activity around one method paper."""
    builder = NetworkBuilder()
    builder.add_paper("foundations-1", 1998.0, authors=["ada"], venue="J-A")
    builder.add_paper("foundations-2", 1999.0, authors=["bob"], venue="J-A")
    builder.add_paper(
        "survey", 2003.0,
        references=["foundations-1", "foundations-2"],
        authors=["ada", "bob"], venue="J-B",
    )
    builder.add_paper(
        "method-x", 2008.0,
        references=["survey", "foundations-1"],
        authors=["cyd"], venue="C-1",
    )
    # A burst of recent papers building on method-x.
    for index, year in enumerate(
        [2009.0, 2009.5, 2010.0, 2010.2, 2010.5, 2010.8], start=1
    ):
        builder.add_paper(
            f"followup-{index}", year,
            references=["method-x", "survey"],
            authors=[f"author-{index}"], venue="C-1",
        )
    return builder


def main() -> None:
    network = build_corpus().build()
    print(f"built: {network}")

    # Round-trip through the on-disk format (what you would do once
    # after parsing a large dump).
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.snap")
        save_network(network, path)
        network = load_network(path)
        print(f"reloaded from {os.path.basename(path)}")

    method = AttRank(
        alpha=0.2, beta=0.5, gamma=0.3, attention_window=2, decay_rate=-0.4
    )
    scores = method.scores(network)
    ranking = method.rank(network)

    rows = [
        [
            position + 1,
            network.id_of(int(i)),
            f"{network.publication_times[i]:.1f}",
            int(network.in_degree[i]),
            f"{scores[i]:.4f}",
        ]
        for position, i in enumerate(ranking)
    ]
    print()
    print(
        format_table(
            ["rank", "paper", "year", "citations", "AttRank"],
            rows,
            title="AttRank ranking (note: method-x over the old classics)",
        )
    )


if __name__ == "__main__":
    main()
