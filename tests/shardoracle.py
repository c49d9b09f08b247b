"""A from-scratch oracle for the shards of a ``ShardedScoreIndex``."""

from __future__ import annotations

import numpy as np

from repro.serve.shard import hash_shard_of


def assert_fresh_slices(store, index, boundaries=None) -> None:
    """Every shard of ``store`` equals a from-scratch slice of ``index``.

    The oracle routes with the scalar FNV hash (or the build-time year
    boundaries) and slices with NumPy; it shares no code with the
    store's append path.
    """
    snap = store.snapshot()
    network = index.network
    times = network.publication_times
    if snap.partitioner == "hash":
        owners = np.array(
            [hash_shard_of(pid, snap.n_shards) for pid in network.paper_ids],
            dtype=np.int64,
        )
    else:
        owners = np.searchsorted(boundaries, times, side="right")
    assert snap.version == index.version
    for shard_id in range(snap.n_shards):
        shard = snap.shard(shard_id)
        owned = np.flatnonzero(owners == shard_id)
        assert np.array_equal(shard.global_indices, owned)
        assert shard.n_papers == owned.size
        assert shard.paper_ids == tuple(network.id_of(int(i)) for i in owned)
        assert np.array_equal(shard.times, times[owned])
        for label in index.labels:
            assert np.array_equal(
                shard.scores[label], index.scores(label)[owned]
            )
        for local, i in enumerate(owned.tolist()):
            assert shard.location_of(network.id_of(i)) == local
        for i in np.flatnonzero(owners != shard_id).tolist():
            assert shard.location_of(network.id_of(i)) is None
