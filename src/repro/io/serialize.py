"""Binary save/load of citation networks, in the one snapshot layout.

Loaders and generators can be slow on large corpora; serialising the
parsed :class:`~repro.graph.CitationNetwork` lets experiments reload it
quickly.  A network file is a ``network`` snapshot of
:mod:`repro.io.layout` (magic, checksummed JSON header, 64-byte-aligned
arrays) holding:

* ``paper_ids/values`` + ``paper_ids/ends`` — the ids' UTF-8 bytes and
  their end offsets,
* ``pub_time`` — float64,
* ``citing`` / ``cited`` — int64 edge arrays,
* ``authors/values`` + ``authors/ends`` — author indices per paper
  (present only when the network has author data),
* ``venues`` — int64 (present only with venue data).

The payload helpers :func:`network_payload` / :func:`network_from_payload`
convert between a network and those arrays without touching the
filesystem; the score index of :mod:`repro.serve` embeds a network
through them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataFormatError, GraphError
from repro.graph.citation_network import CitationNetwork
from repro.io.layout import FORMAT_VERSION, Decoded, encode, put_ids, put_ragged, read

__all__ = [
    "save_network",
    "load_network",
    "network_payload",
    "network_from_payload",
    "FORMAT_VERSION",
]


def network_payload(network: CitationNetwork) -> dict[str, np.ndarray]:
    """The arrays encoding ``network`` in the snapshot layout."""
    payload: dict[str, np.ndarray] = {}
    put_ids(payload, "paper_ids", network.paper_ids)
    payload["pub_time"] = network.publication_times
    payload["citing"] = network.citing
    payload["cited"] = network.cited
    if network.paper_authors is not None:
        put_ragged(
            payload,
            "authors",
            np.asarray(
                [a for authors in network.paper_authors for a in authors],
                dtype=np.int64,
            ),
            [len(authors) for authors in network.paper_authors],
        )
    if network.paper_venues is not None:
        payload["venues"] = network.paper_venues
    return payload


def network_from_payload(decoded: Decoded) -> CitationNetwork:
    """Rebuild a network from the arrays of a decoded snapshot.

    Takes the network's arrays out of ``decoded``; the caller checks
    that nothing else is left (:meth:`Decoded.finish`).  The network
    copies what it keeps, so it does not pin the decoded buffer.

    Raises
    ------
    DataFormatError
        Of the type ``decoded`` names, if arrays are missing or of the
        wrong dtype or length, or describe an invalid network.
    """
    pub_time = decoded.take("pub_time", "<f8")
    n_papers = pub_time.size
    paper_ids = decoded.decode_ids(
        *decoded.take_ragged("paper_ids", "|u1", n_papers)
    )
    citing = decoded.take("citing", "<i8")
    cited = decoded.take("cited", "<i8", citing.size)
    paper_authors = None
    if "authors/ends" in decoded.arrays:
        values, ends = decoded.take_ragged("authors", "<i8", n_papers)
        flat, stops = values.tolist(), ends.tolist()
        paper_authors = [flat[a:b] for a, b in zip([0, *stops], stops)]
    venues = (
        decoded.take("venues", "<i8", n_papers)
        if "venues" in decoded.arrays
        else None
    )
    try:
        return CitationNetwork(
            paper_ids=paper_ids,
            publication_times=pub_time,
            citing=citing,
            cited=cited,
            paper_authors=paper_authors,
            paper_venues=venues,
            validate=True,
        )
    except GraphError as error:
        raise decoded.fail(f"invalid network ({error})") from None


def save_network(network: CitationNetwork, path: str) -> None:
    """Write ``network`` to exactly ``path``, atomically."""
    encode("network", {}, network_payload(network)).save(path)


def load_network(path: str) -> CitationNetwork:
    """Read a network previously written by :func:`save_network`.

    Raises
    ------
    DataFormatError
        If the file is missing, fails a checksum, is not a network
        file, or its header or arrays are malformed.
    """
    decoded = read(path, kind="network", error=DataFormatError)
    network = network_from_payload(decoded)
    decoded.finish()
    return network
