"""Dataset loaders and serialisation.

Real-data entry points (the formats of the paper's four corpora):

* :func:`load_hepth` — KDD Cup 2003 arXiv hep-th files.
* :func:`load_aminer` — AMiner/DBLP V-format citation dumps.
* :func:`load_csv_dataset` — APS/PMC-style metadata + citation CSVs.
* :func:`load_edge_list` — generic whitespace/CSV edge + dates files.
* :func:`save_network` / :func:`load_network` — a network file in the
  one checksummed snapshot layout of :mod:`repro.io.layout`, which
  index files, store files and shared-memory generations share.
"""

from repro.io.aminer import load_aminer
from repro.io.edgelist import load_csv_dataset, load_edge_list
from repro.io.hepth import load_hepth, parse_hepth_date
from repro.io.serialize import (
    FORMAT_VERSION,
    load_network,
    network_from_payload,
    network_payload,
    save_network,
)

__all__ = [
    "load_aminer",
    "load_csv_dataset",
    "load_edge_list",
    "load_hepth",
    "parse_hepth_date",
    "FORMAT_VERSION",
    "load_network",
    "network_from_payload",
    "network_payload",
    "save_network",
]
