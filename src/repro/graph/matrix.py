"""Stochastic-matrix machinery shared by all PageRank-style methods.

The paper (Section 2) defines the column-stochastic matrix ``S`` derived
from the citation matrix ``C``:

* ``S[i, j] = 1 / k_j``  if paper ``j`` cites ``k_j`` papers, one of which
  is ``i``;
* ``S[i, j] = 0``        if ``j`` cites papers but not ``i``;
* ``S[i, j] = 1 / |P|``  if ``j`` is *dangling* (cites nothing).

Materialising the dangling columns would make ``S`` dense, so this module
represents ``S`` as a sparse part plus a dangling rank-one correction and
exposes :class:`StochasticOperator` whose :meth:`StochasticOperator.apply`
computes the exact product ``S @ v`` in O(nnz) time.

:func:`shared_operator` builds ``S`` once per network.  For a network
:meth:`~repro.graph.CitationNetwork.extend`-ed from a live parent whose
operator is cached, it inserts the new papers' columns into the parent's
operator instead (vectorised copies, no sort); the result equals a
fresh build array for array.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro._typing import FloatVector
from repro.errors import GraphError
from repro.graph.cache import cached_value, memoize_on
from repro.graph.citation_network import CitationNetwork

__all__ = [
    "StochasticOperator",
    "column_stochastic",
    "is_column_stochastic",
    "shared_operator",
]

_OPERATOR_KEY = ("stochastic_operator",)


def column_stochastic(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Normalise the columns of a non-negative sparse matrix to sum to one.

    Columns that sum to zero are left as all-zero (the caller decides how
    to treat dangling nodes).

    Raises
    ------
    GraphError
        If ``matrix`` is not square or contains negative entries.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"matrix must be square, got shape {matrix.shape}")
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.nnz and csr.data.min() < 0:
        raise GraphError("matrix entries must be non-negative")
    col_sums = np.asarray(csr.sum(axis=0)).ravel()
    scale = np.ones_like(col_sums)
    nonzero = col_sums > 0
    scale[nonzero] = 1.0 / col_sums[nonzero]
    return csr @ sp.diags(scale)


def is_column_stochastic(
    matrix: sp.spmatrix,
    *,
    allow_zero_columns: bool = False,
    atol: float = 1e-10,
) -> bool:
    """Return whether every column of ``matrix`` sums to one (within ``atol``).

    With ``allow_zero_columns=True``, all-zero columns are also accepted
    (the dangling-column convention used by the sparse part of ``S``).
    """
    col_sums = np.asarray(sp.csr_matrix(matrix).sum(axis=0)).ravel()
    ok = np.abs(col_sums - 1.0) <= atol
    if allow_zero_columns:
        ok |= np.abs(col_sums) <= atol
    return bool(np.all(ok))


class StochasticOperator:
    """The exact column-stochastic citation operator ``S`` of the paper.

    The operator is stored as ``S = S_sparse + (1/n) * 1 @ d^T`` where
    ``S_sparse`` holds the reference-normalised columns and ``d`` is the
    indicator of dangling papers.  :meth:`apply` evaluates ``S @ v``
    without densifying.

    Parameters
    ----------
    network:
        The citation network whose matrix to build.
    weights:
        Optional per-edge weight vector (aligned with
        ``network.citing`` / ``network.cited``).  Used by time-weighted
        variants (e.g. retained adjacency matrices); defaults to all-ones.
    """

    def __init__(
        self,
        network: CitationNetwork,
        *,
        weights: FloatVector | None = None,
    ) -> None:
        self._n = network.n_papers
        if weights is None:
            data = np.ones(network.n_citations, dtype=np.float64)
        else:
            data = np.asarray(weights, dtype=np.float64)
            if data.shape != (network.n_citations,):
                raise GraphError(
                    "weights must have one entry per citation edge; got "
                    f"{data.shape}, expected ({network.n_citations},)"
                )
            if data.size and data.min() < 0:
                raise GraphError("edge weights must be non-negative")
        raw = sp.csr_matrix(
            (data, (network.cited, network.citing)), shape=(self._n, self._n)
        )
        raw.sum_duplicates()
        self._sparse = column_stochastic(raw)
        col_sums = np.asarray(raw.sum(axis=0)).ravel()
        self._dangling = col_sums == 0.0
        # CSR is efficient for matvec; keep a CSC view for column slicing.
        self._sparse = sp.csr_matrix(self._sparse)

    def _extended(
        self, network: CitationNetwork, parent: CitationNetwork
    ) -> "StochasticOperator":
        """This operator (of ``parent``) grown to its extension ``network``.

        Every appended citation comes from an appended paper (see
        :attr:`CitationNetwork.parent`), so no existing column changes.
        The sparse part lists each row's columns in *descending* order —
        the order scipy's product with the diagonal column scaling
        emits — and the new columns are the highest, so each row's new
        entries go in front of its old ones.  New values come from the
        same float operations as a fresh build: the result equals
        ``StochasticOperator(network)`` array for array.
        """
        n = network.n_papers
        n_old = parent.n_papers
        citing = network.citing[parent.n_citations:]
        cited = network.cited[parent.n_citations:]
        # Reference count per new column, duplicate edges included: the
        # fresh build sums duplicates before normalising columns.
        references = np.bincount(
            citing - n_old, minlength=n - n_old
        ).astype(np.float64)
        scale = np.ones_like(references)
        cites = references > 0
        scale[cites] = 1.0 / references[cites]
        # Distinct (row, column) entries by row, then column descending.
        codes, counts = np.unique(
            cited * n + (n - 1 - citing), return_counts=True
        )
        rows = codes // n
        columns = n - 1 - codes % n
        values = counts.astype(np.float64) * scale[columns - n_old]

        old = self._sparse
        per_row = np.bincount(rows, minlength=n)
        nnz = old.nnz + rows.size
        index_dtype = (
            np.int64
            if max(nnz, n) > np.iinfo(np.int32).max
            else old.indices.dtype
        )
        indptr = np.empty(n + 1, dtype=index_dtype)
        indptr[: n_old + 1] = old.indptr
        indptr[n_old + 1:] = old.indptr[-1]
        indptr[1:] += np.cumsum(per_row, dtype=index_dtype)
        # A new entry's slot: its row's start plus its rank in the row.
        first_of_row = np.cumsum(per_row) - per_row
        slots = indptr[rows] + np.arange(rows.size) - first_of_row[rows]
        inserted = np.zeros(nnz, dtype=bool)
        inserted[slots] = True
        indices = np.empty(nnz, dtype=index_dtype)
        indices[slots] = columns
        indices[~inserted] = old.indices
        data = np.empty(nnz, dtype=np.float64)
        data[slots] = values
        data[~inserted] = old.data
        grown = StochasticOperator.__new__(StochasticOperator)
        grown._n = n
        grown._sparse = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        grown._dangling = np.concatenate([self._dangling, references == 0.0])
        return grown

    @property
    def n(self) -> int:
        """Dimension of the operator (number of papers)."""
        return self._n

    @property
    def sparse_part(self) -> sp.csr_matrix:
        """The reference-normalised sparse part of ``S`` (zero dangling cols)."""
        return self._sparse

    @property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of dangling (reference-free) papers."""
        return self._dangling

    @cached_property
    def n_dangling(self) -> int:
        """Number of dangling papers."""
        return int(self._dangling.sum())

    def apply(self, vector: FloatVector) -> FloatVector:
        """Compute ``S @ vector`` exactly, including dangling columns.

        The dangling correction redistributes the probability mass sitting
        on dangling papers uniformly: ``(1/n) * sum(vector[dangling])``.
        """
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self._n,):
            raise GraphError(
                f"vector has shape {v.shape}, expected ({self._n},)"
            )
        result = self._sparse @ v
        if self.n_dangling:
            result += v[self._dangling].sum() / self._n
        return result

    def dense(self) -> np.ndarray:
        """Materialise ``S`` as a dense array (tests / tiny networks only)."""
        full = self._sparse.toarray()
        if self.n_dangling:
            full[:, self._dangling] = 1.0 / self._n
        return full


def shared_operator(network: CitationNetwork) -> StochasticOperator:
    """The memoised unweighted :class:`StochasticOperator` of ``network``.

    Building ``S`` is the dominant fixed cost of every PageRank-style
    solve (CSR assembly + column normalisation, O(nnz)).  All call sites
    that need the *unweighted* operator — AttRank, PageRank, CiteRank,
    FutureRank, WSDM — go through this accessor, so one grid search
    builds ``S`` once instead of once per grid point.  Weighted variants
    (per-edge retention weights) are not cached here; their weights
    depend on method hyper-parameters and are memoised at their own call
    sites.

    A network extended from a live parent whose operator is cached (the
    stream's versions) gets the parent's operator with the new columns
    inserted, in O(nnz) vectorised copies instead of a CSR assembly and
    normalisation; every other network is built from scratch.
    """

    def build() -> StochasticOperator:
        parent = network.parent
        base = None if parent is None else cached_value(parent, _OPERATOR_KEY)
        if base is not None:
            return base._extended(network, parent)
        return StochasticOperator(network)

    return memoize_on(network, _OPERATOR_KEY, build)
