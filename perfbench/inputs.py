"""Seeded inputs: the synthetic corpus, its saved forms, and the read mix.

The corpus comes from ``repro.synth`` (the ``dblp`` profile); the files
the system under test opens are written with the program's own
``ScoreIndex.save``, ``EventLog.save`` and ``save_network``.

The corpus is one reference corpus (:data:`CORPUS_SEED`) and the run's
seed drives the request stream.  The cost of the tuning protocol
depends on the corpus far more than any regression bound allows: over
corpus seeds 1-10 at the ``medium`` size it ran 3.4-8.1 s, an
interquartile spread of 0.27 of the median, mostly FutureRank's
iteration counts.  A fixed corpus keeps that out of every run-to-run
comparison, and lets every ``tune`` run check its whole table against
the committed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from urllib.parse import quote

import numpy as np

PROFILE = "dblp"
#: 48,000 papers for the HTTP workloads, 20,000 for the tuning protocol.
SERVE_SIZE = "large"
TUNE_SIZE = "medium"
SERVE_METHODS = ("AR", "PR", "CC")
CORPUS_SEED = 1
#: The updater's log starts this far in, so it never runs dry in a window.
BOOTSTRAP_SHARE = 0.95
#: Request mix: (top, paper, compare) shares.
MIX = (0.6, 0.3, 0.1)
PAGE_SIZES = (10, 25)
PAGES = 50
#: Zipf exponent of page and paper popularity: front pages are hot
#: (about 0.45 of reads hit the 128-entry result cache on ``read``) and
#: the long tail keeps the working set far beyond it.
ZIPF = 1.35


@dataclass(frozen=True)
class Request:
    """One read: the URL path the client sends and the direct call it means."""

    path: str
    kind: str
    method: str | tuple[str, ...] = ""
    k: int = 0
    offset: int = 0
    year_range: tuple[float, float] | None = None
    paper_id: str = ""


def corpus(size: str):
    from repro.synth import generate_dataset

    return generate_dataset(PROFILE, size=size, seed=CORPUS_SEED)


def traffic_rng(seed: int) -> np.random.Generator:
    """The request stream's generator: the run's seed decides every read."""
    return np.random.default_rng([seed, 0x7E57])


def _zipf_sampler(rng: np.random.Generator, count: int):
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** ZIPF
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]

    def draw() -> int:
        return min(int(np.searchsorted(cumulative, rng.random(), side="right")), count - 1)

    return draw


def year_filters(latest: float) -> tuple[tuple[float, float] | None, ...]:
    """No filter, the last 5 years, the last 10 years, everything before."""
    year = float(math.floor(latest))
    return (
        None,
        (year - 5, math.inf),
        (year - 10, math.inf),
        (-math.inf, year - 10),
    )


def _span_params(span: tuple[float, float] | None) -> str:
    if span is None:
        return ""
    lo, hi = span
    params = ""
    if math.isfinite(lo):
        params += f"&year_min={lo:.0f}"
    if math.isfinite(hi):
        params += f"&year_max={hi:.0f}"
    return params


def read_mix(
    rng: np.random.Generator,
    count: int,
    paper_ids: list[str],
    latest: float,
) -> list[Request]:
    """``count`` reads: ~60% ranking pages, ~30% paper lookups, ~10% compares.

    Pages (method x size x Zipf page x year filter) and papers (Zipf over
    a seeded shuffle of ``paper_ids``) both have a hot head and a long
    tail, so the result cache hits on some requests and misses on many.
    """
    filters = year_filters(latest)
    page = _zipf_sampler(rng, PAGES)
    popular = [paper_ids[i] for i in rng.permutation(len(paper_ids))]
    paper = _zipf_sampler(rng, len(popular))
    requests = []
    for kind in rng.choice(3, size=count, p=MIX):
        if kind == 1:
            paper_id = popular[paper()]
            requests.append(
                Request(path=f"/v1/paper/{quote(paper_id)}", kind="paper", paper_id=paper_id)
            )
            continue
        k = int(PAGE_SIZES[rng.integers(len(PAGE_SIZES))])
        offset = 10 * page()
        span = filters[int(rng.integers(len(filters)))]
        tail = f"&k={k}&offset={offset}{_span_params(span)}"
        if kind == 0:
            method = SERVE_METHODS[int(rng.integers(len(SERVE_METHODS)))]
            requests.append(
                Request(
                    path=f"/v1/top?method={method}{tail}",
                    kind="top",
                    method=method,
                    k=k,
                    offset=offset,
                    year_range=span,
                )
            )
        else:
            pair = tuple(SERVE_METHODS[i] for i in rng.choice(len(SERVE_METHODS), 2, replace=False))
            requests.append(
                Request(
                    path=f"/v1/compare?methods={','.join(pair)}{tail}",
                    kind="compare",
                    method=pair,
                    k=k,
                    offset=offset,
                    year_range=span,
                )
            )
    return requests


def direct_answer(service, request: Request):
    """The same read as a direct call on a ``RankingService``."""
    if request.kind == "top":
        return service.top_k(
            request.method, k=request.k, offset=request.offset, year_range=request.year_range
        )
    if request.kind == "compare":
        return service.compare(
            list(request.method), k=request.k, offset=request.offset, year_range=request.year_range
        )
    return service.paper(request.paper_id)


def bootstrap_events(log_length: int) -> int:
    return int(log_length * BOOTSTRAP_SHARE)


def bootstrap_papers(log, bootstrap: int) -> tuple[list[str], float]:
    """Papers certainly present after the bootstrap batch, and their latest time."""
    from repro.stream.events import PaperEvent

    papers = [event for event in log.events[:bootstrap] if isinstance(event, PaperEvent)]
    return [event.paper_id for event in papers], max(event.time for event in papers)
