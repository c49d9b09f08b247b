"""Oracles for the versions of a network grown by ``CitationNetwork.extend``.

Every version shares one append-only id table with the versions it was
grown from: the newest version appends in place, an older one copies
its prefix first, and every lookup ignores positions past the asking
version's length.  Whatever the order of extensions — including an
older version extended after a newer one exists, and an extension that
fails part-way — each version must be indistinguishable from a network
built from scratch on the same papers and edges.  That covers the ids
and their lookups, the edge and time arrays, and the structure derived
from a cached parent (the stochastic operator, in-degrees and the
citation-age distribution).
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GraphError
from repro.graph import (
    CitationNetwork,
    IdTable,
    StochasticOperator,
    citation_age_counts,
    citation_age_distribution,
    shared_operator,
)
from repro.serve import ScoreIndex
from repro.stream import EventLog, StreamIngestor

_YEARS = st.integers(0, 12).map(lambda half_years: 2000.0 + half_years / 2)


@st.composite
def _papers(draw, max_papers: int):
    """New papers as ``(time, reference picks)``; picks are resolved later."""
    count = draw(st.integers(0, max_papers))
    return [
        (
            draw(_YEARS),
            draw(st.lists(st.integers(0, 10_000), max_size=4)),
        )
        for _ in range(count)
    ]


@st.composite
def _steps(draw):
    """One extension: which version to grow, what to add, how it fails."""
    return {
        # Mostly the newest version (an in-place append), sometimes an
        # older one (a prefix copy).
        "parent": draw(st.one_of(st.just(-1), st.integers(0, 50))),
        "papers": draw(_papers(4)),
        # A reference from an existing paper: a valid extension whose
        # derived structure must be rebuilt, not updated.
        "old_citing": draw(st.booleans()) and draw(st.booleans()),
        # A citation naming an id nobody added: extend must raise and
        # leave every version as it was.
        "unknown": draw(st.integers(0, 5)) == 0,
    }


class _Expected:
    """The papers and edges of one version, kept as plain lists."""

    def __init__(self, ids, times, citing, cited):
        self.ids, self.times = list(ids), list(times)
        self.citing, self.cited = list(citing), list(cited)

    def fresh(self) -> CitationNetwork:
        return CitationNetwork(
            list(self.ids), self.times, self.citing, self.cited
        )


@contextmanager
def _operator_builds():
    """Count full ``StochasticOperator`` builds inside the block."""
    builds: list[int] = []
    original = StochasticOperator.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    StochasticOperator.__init__ = counting
    try:
        yield builds
    finally:
        StochasticOperator.__init__ = original


def _cache_derived(version: CitationNetwork) -> None:
    """Compute what a child derives from, as a solve would."""
    shared_operator(version)
    version.in_degree
    citation_age_counts(version)


def _assert_matches_fresh(version, expected: _Expected, universe) -> None:
    fresh = expected.fresh()
    assert version.n_papers == fresh.n_papers
    assert version.n_citations == fresh.n_citations
    assert isinstance(version.paper_ids, tuple)
    assert version.paper_ids == fresh.paper_ids
    assert version.paper_ids_from(1) == list(fresh.paper_ids[1:])
    for name in ("publication_times", "citing", "cited"):
        assert np.array_equal(getattr(version, name), getattr(fresh, name))
    for index in range(fresh.n_papers):
        assert version.id_of(index) == fresh.id_of(index)
    with pytest.raises(IndexError):
        version.id_of(fresh.n_papers)
    for pid in universe:
        assert (pid in version) == (pid in fresh), pid
        if pid in fresh:
            assert version.index_of(pid) == fresh.index_of(pid)
        else:
            with pytest.raises(GraphError):
                version.index_of(pid)
    derived = shared_operator(version)
    rebuilt = StochasticOperator(fresh)
    for name in ("indptr", "indices", "data"):
        got = getattr(derived.sparse_part, name)
        want = getattr(rebuilt.sparse_part, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert np.array_equal(derived.dangling_mask, rebuilt.dangling_mask)
    assert np.array_equal(version.in_degree, fresh.in_degree)
    assert version.in_degree.dtype == fresh.in_degree.dtype
    try:
        want_ages = citation_age_distribution(fresh)
    except GraphError:
        with pytest.raises(GraphError):
            citation_age_distribution(version)
    else:
        assert np.array_equal(citation_age_distribution(version), want_ages)


@given(
    base=_papers(6),
    steps=st.lists(_steps(), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_every_version_equals_a_fresh_build(base, steps):
    ids = [f"b{i}" for i in range(len(base))]
    citing, cited = [], []
    for source, (_, picks) in enumerate(base):
        for pick in picks:
            if source:
                citing.append(source)
                cited.append(pick % source)
    root = _Expected(ids, [t for t, _ in base], citing, cited)
    versions = [(root.fresh(), root)]
    _cache_derived(versions[0][0])
    universe = set(ids)
    for number, step in enumerate(steps):
        parent, known = versions[step["parent"] % len(versions)]
        new_ids = [f"s{number}p{j}" for j in range(len(step["papers"]))]
        universe.update(new_ids)
        expected = _Expected(
            known.ids + new_ids,
            known.times + [t for t, _ in step["papers"]],
            known.citing,
            known.cited,
        )
        citations = []
        for j, (_, picks) in enumerate(step["papers"]):
            source = len(known.ids) + j
            for pick in picks:
                if source == 0:
                    continue
                target = pick % source
                citations.append((expected.ids[source], expected.ids[target]))
                expected.citing.append(source)
                expected.cited.append(target)
        if step["old_citing"] and len(known.ids) >= 2:
            citations.append((known.ids[-1], known.ids[0]))
            expected.citing.append(len(known.ids) - 1)
            expected.cited.append(0)
        times = [t for t, _ in step["papers"]]
        if step["unknown"]:
            # Valid citations first, then one naming an id nobody added.
            ghost = f"ghost{number}"
            universe.add(ghost)
            source = new_ids[0] if new_ids else ghost
            with pytest.raises(GraphError, match="unknown"):
                parent.extend(new_ids, times, citations + [(source, ghost)])
            continue
        with _operator_builds() as builds:
            version = parent.extend(new_ids, times, citations)
            _cache_derived(version)
        derivable = not (step["old_citing"] and len(known.ids) >= 2)
        assert (version.parent is parent) == derivable
        # Derived from the parent's cached operator, never rebuilt.
        assert builds == ([] if derivable else [1])
        versions.append((version, expected))
    for version, expected in versions:
        _assert_matches_fresh(version, expected, universe)


def test_failed_extend_leaves_the_tip_in_place(toy):
    first = toy.extend(["N1"], [2010.0], [("N1", "A")])
    with pytest.raises(GraphError, match="ghost"):
        first.extend(["N2"], [2011.0], [("N2", "ghost")])
    second = first.extend(["N3"], [2011.0], [("N3", "N1")])
    # Nothing of the failed delta reached the shared table: the next
    # extension is still an in-place append.
    assert second.is_extension_of(first) and second._ids is first._ids
    assert "N2" not in second and second.index_of("N3") == 9


def test_older_version_copies_its_prefix(toy):
    newer = toy.extend(["N1"], [2010.0], [("N1", "A")])
    sibling = toy.extend(["M1"], [2010.0], [("M1", "B")])
    assert sibling._ids is not toy._ids
    assert "M1" not in newer and "N1" not in sibling
    assert newer.index_of("N1") == sibling.index_of("M1") == toy.n_papers
    assert sibling.is_extension_of(toy) and not sibling.is_extension_of(newer)


def test_pickled_version_carries_only_its_own_ids(toy):
    first = toy.extend(["N1"], [2010.0], [("N1", "A")])
    first.extend(["N2"], [2011.0], [("N2", "N1")])
    copy = pickle.loads(pickle.dumps(first))
    assert copy.paper_ids == first.paper_ids and copy.parent is None
    assert "N1" in copy and "N2" not in copy
    assert copy.extend(["N3"], [2012.0], []).index_of("N3") == 9


def test_id_table_lookups_respect_the_length_bound():
    table = IdTable(["a", "b"])
    grown = table.grown(2, ["c"])
    assert grown is table
    assert table.position("c", 2) is None and table.position("c", 3) == 2
    with pytest.raises(IndexError):
        table.id_at(2, 2)
    copy = table.grown(2, ["d"])
    assert copy is not table and copy.ids(0, 3) == ["a", "b", "d"]
    assert table.ids(0, 3) == ["a", "b", "c"]


def test_id_table_appends_race_lookups():
    """Readers of captured versions never see another version's ids.

    One thread grows the table from its tip (and, every 50 steps, from
    an older version, which copies a prefix) while four readers check
    the newest version they captured.  A lookup that ignored its length
    bound, or an append that lost or reordered an id, breaks the check.
    """
    versions = [(IdTable(), 0)]
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                table, length = versions[-1]
                for position in range(0, length, 17):
                    assert table.position(f"v{position}", length) == position
                    assert table.id_at(position, length) == f"v{position}"
                assert table.position(f"v{length}", length) is None
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for step in range(1, 1500):
            table, length = versions[-1 if step % 50 else -10]
            versions.append((table.grown(length, [f"v{length}"]), length + 1))
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    table, length = versions[-1]
    assert table.ids(0, length) == [f"v{i}" for i in range(length)]


class TestRefreshPrefixCheck:
    def test_reversed_ids_are_rejected(self, toy):
        index = ScoreIndex(toy)
        index.add_method("CC")
        reversed_ids = CitationNetwork(
            list(reversed(toy.paper_ids)),
            toy.publication_times,
            toy.citing,
            toy.cited,
        )
        with pytest.raises(ConfigurationError, match="not an extension"):
            index.refresh(reversed_ids)
        assert index.version == 0 and index.network is toy

    def test_descendants_and_equal_prefixes_are_accepted(self, toy):
        index = ScoreIndex(toy)
        index.add_method("CC")
        grown = toy.extend(["N1"], [2010.0], [("N1", "A")])
        index.refresh(grown)
        rebuilt = CitationNetwork(
            list(grown.paper_ids) + ["N2"],
            list(grown.publication_times) + [2011.0],
            grown.citing,
            grown.cited,
        )
        index.refresh(rebuilt)
        assert index.version == 2 and index.network is rebuilt


def test_no_version_keeps_its_parent_alive(hepth_tiny):
    log = EventLog.from_network(hepth_tiny)
    ingestor = StreamIngestor(
        log, ("AR", "PR", "CC"), batch_size=64, bootstrap_size=len(log) // 2
    )
    ingestor.step()
    ingestor.step()
    held = ingestor.index.network
    ingestor.step()
    assert ingestor.index.network.parent is held
    first = weakref.ref(held)
    del held
    ingestor.replay(max_batches=4)
    gc.collect()
    assert first() is None
