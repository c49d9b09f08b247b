"""The fused multi-method solver — one SpMV pass per iteration, shared.

Every iterative method in this library (AttRank, PageRank, CiteRank,
FutureRank, ECM) power-iterates a fixed-point map of the shape

    x  <-  alpha * (M @ x  [+ dangling correction])  +  jump

over the *same* citation operator (ECM over its own retained matrix).
Solving them one at a time walks the sparse matrix once per method per
iteration; this module stacks the methods' iterates and advances all of
them with a **single sparse multiply per distinct operator per
iteration**:

    Y = M @ X                                   (one SpMV, m columns)
    U = diag(alpha) applied per column:  U[:, j] = alpha_j * Y[:, j] + J[:, j]

followed by the per-column hygiene the scalar loop performs (dangling
correction, L1 renormalisation, residual tracking).  Columns carry their
own tolerance, iteration budget and convergence mask: a column whose L1
residual drops below its tolerance is *dropped from the stack* and the
remaining columns keep iterating on a compacted matrix, so a
fast-converging method never pays for a slow one.

Layout and memory model
-----------------------
The carried iterate is the *transposed* stack ``XT`` — ``(m, n)``,
C-order, one contiguous row per column — because everything outside the
SpMV itself is per-column work (masked dangling sums, row
renormalisation, L1 residuals), and contiguous rows make those plain
axis-1 reductions.  The ``(n, m)`` SpMV operand is materialised from
``XT`` once per iteration into a persistent buffer; the updated stack
is transposed back into the double-buffer partner of ``XT``, and the
two swap roles each iteration, so the loop allocates nothing.  Wide
stacks are solved in column batches sized to
:data:`STACK_BYTES_BUDGET` so the live buffers stay cache-resident
(batching is pure scheduling — per-column arithmetic is unchanged), and
:func:`solve_methods` only stacks operator groups of at least
:data:`FUSE_MIN_COLUMNS` columns, the measured crossover where SpMV
sharing starts to beat the scalar loop's leaner per-iteration traffic.

Bit-identity contract
---------------------
The float64 fused path is **bit-identical** to the per-method
:func:`~repro.core.power_iteration.power_iterate` loop, for any subset
of methods, any drop order and any ``jobs`` value.  This is not a
tolerance claim — the golden fixtures and hypothesis properties assert
``np.array_equal``.  It holds because every fused operation is
elementwise equal to its scalar counterpart:

* ``M @ X`` computes each output column exactly as ``M @ X[:, j]``;
* column reductions (``X[:, j].sum()``) use numpy's pairwise summation,
  whose reduction tree depends only on the element *count*, not the
  stride — a strided column sums bit-identically to a contiguous copy;
* the 2-D broadcasts (``alpha_row * Y + J``, ``U / totals``,
  ``np.abs(U - X)``) are elementwise, so column ``j`` of the result
  equals the 1-D expression on column ``j``;
* row-chunked SpMV (the ``jobs > 1`` path) writes disjoint row slices
  ``Y[lo:hi] = M[lo:hi] @ X`` whose values equal the unchunked product.

* axis-1 reductions over the C-order transposed stack reduce each
  contiguous row with the same pairwise tree as that row's 1-D
  ``.sum()``.

What is *not* safe — and therefore not used — is any ``axis=0``
reduction over an ``(n, m)`` stack (a different traversal order, not
pairwise per column), reducing an F-ordered gather like
``XT[:, mask]`` without a C copy first, or ``np.ascontiguousarray`` /
``.T`` round-trips on one-column stacks (a ``(1, n)`` array is already
contiguous, so those return *views* and in-place updates would alias).
See docs/SOLVER.md for the full model.

float32 mode
------------
``dtype=np.float32`` halves the memory traffic of the stack.  A float32
iteration cannot reach the paper's 1e-12 tolerance (the type holds ~7
decimal digits), so column tolerances are floored at
:data:`FLOAT32_TOLERANCE`; the measured rank-agreement/error bound
against the float64 path is asserted in the test suite and tabulated in
docs/SOLVER.md.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - import guard exercised by environment
    # The same C kernel scipy's ``csr @ dense`` dispatch lands on, but
    # callable with a *preallocated* output (it accumulates into y).
    # Calling it directly skips a fresh megabyte-scale result
    # allocation per iteration; values are identical because scipy's
    # own path is exactly zeros() + this kernel.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover
    _csr_matvecs = None

from repro._typing import FloatVector
from repro.errors import ConfigurationError, ConvergenceError
from repro.obs.registry import REGISTRY
from repro.ranking import ConvergenceInfo

__all__ = [
    "FLOAT32_TOLERANCE",
    "FUSE_MIN_COLUMNS",
    "FusedColumn",
    "FusedSolver",
    "solve_methods",
    "stack_width",
]

#: The loosest tolerance a float32 iterate can reliably reach; column
#: tolerances are floored here when solving in float32.
FLOAT32_TOLERANCE = 1e-6

#: Working-set budget for one stacked iterate, in bytes.  Wide stacks
#: are solved in column batches sized to this, so the ~4 live (n, k)
#: buffers each iteration streams stay cache-resident: a 64-wide
#: float64 stack at n=7500 is 3.8 MB per buffer, and letting every
#: elementwise pass spill past L2 erases much of the SpMV amortisation
#: the fusion exists for.
STACK_BYTES_BUDGET = 512 << 10

#: Never batch below this many columns (when that many were asked
#: for): the csr SpMV kernel's per-row amortisation saturates around
#: 16 stacked vectors, and giving up kernel throughput to fit cache is
#: a net loss — at large n every per-column pass misses cache in the
#: serial path too, so the relative cost of streaming disappears.
MIN_STACK_WIDTH = 16

#: Minimum columns sharing one operator before
#: :func:`solve_methods` stacks them.  Below this the stacked loop's
#: extra full-stack passes (operand gather, transposed write-back,
#: broadcast affine) cost more than the SpMV sharing recoups — the
#: measured crossover sits near 8 columns — so narrower groups take
#: their methods' scalar ``scores()`` path instead.  Results are
#: bit-identical either way; only wall-clock changes.
FUSE_MIN_COLUMNS = 8


def stack_width(n: int, dtype: Any = np.float64) -> int:
    """Columns per stacked batch for vectors of ``n`` entries.

    One stacked buffer stays near :data:`STACK_BYTES_BUDGET`, and no
    batch is narrower than :data:`MIN_STACK_WIDTH`.  Batching is a pure
    scheduling choice — each column's arithmetic is unchanged, so
    results are bit-identical at any width.
    """
    column_bytes = int(n) * np.dtype(dtype).itemsize
    return max(MIN_STACK_WIDTH, STACK_BYTES_BUDGET // max(column_bytes, 1))


_FUSED_PASSES = REGISTRY.counter(
    "repro_fused_passes_total",
    "Fused solver passes, by outcome.",
    ["outcome"],
)
_FUSED_PASS_SECONDS = REGISTRY.histogram(
    "repro_fused_pass_seconds",
    "Wall-clock seconds per fused solver pass (all columns together).",
)
_FUSED_COLUMN_ITERATIONS = REGISTRY.counter(
    "repro_fused_column_iterations_total",
    "Power iterations accumulated per method column in fused passes.",
    ["method"],
)
_FUSED_ACTIVE_COLUMNS = REGISTRY.histogram(
    "repro_fused_active_columns",
    "Active (unconverged) columns per fused iteration.",
    bounds=(1, 2, 4, 8, 16, 32, 64, 128),
)


@dataclass
class FusedColumn:
    """One method's column in a fused solve.

    A column is either *linear* — ``matrix`` is set, and one iteration
    computes ``alpha * (matrix @ x + dangling correction) + jump`` — or
    a bare ``step`` callable (the degenerate form
    :func:`~repro.core.power_iteration.power_iterate` delegates
    through).  Linear columns with a ``combine`` callback override the
    affine update while still sharing the stacked SpMV (FutureRank's
    author-reinforcement term).

    Attributes
    ----------
    label:
        Method label, used for diagnostics and metrics.
    matrix:
        CSR operator of the linear part.  Columns sharing the *same*
        matrix object share one SpMV per iteration.
    alpha:
        Damping factor multiplying the SpMV result.
    jump:
        Additive vector of the affine update (teleport, attention jump,
        entry distribution, ...).  Required for linear columns without
        a ``combine`` callback.
    dangling:
        Optional boolean mask of dangling papers; when set, the SpMV
        result receives the ``sum(x[dangling]) / n`` correction before
        damping, exactly as
        :meth:`~repro.graph.matrix.StochasticOperator.apply` does.
    combine:
        Optional ``(y, x) -> u`` callback replacing the affine update:
        ``y`` is the (dangling-corrected) SpMV result, ``x`` the current
        iterate, both 1-D contiguous.  Must mirror the method's scalar
        step bit-for-bit.
    step:
        Bare fixed-point map for non-linear columns; mutually exclusive
        with ``matrix``.
    start:
        Starting vector (``None`` = uniform), handled exactly as
        :func:`~repro.core.power_iteration.power_iterate` handles it.
    normalize:
        Renormalise the iterate to sum 1 after every step.
    tol, max_iterations, raise_on_failure:
        Per-column convergence controls with
        :func:`~repro.core.power_iteration.power_iterate` semantics.
    """

    label: str
    matrix: sp.csr_matrix | None = None
    alpha: float = 0.0
    jump: FloatVector | None = None
    dangling: np.ndarray | None = None
    combine: Callable[[FloatVector, FloatVector], FloatVector] | None = None
    step: Callable[[FloatVector], FloatVector] | None = None
    start: FloatVector | None = None
    normalize: bool = True
    tol: float = 1e-12
    max_iterations: int = 1000
    raise_on_failure: bool = True

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if (self.matrix is None) == (self.step is None):
            raise ConfigurationError(
                f"column {self.label!r} must set exactly one of "
                "matrix/step"
            )
        if self.step is not None and self.combine is not None:
            raise ConfigurationError(
                f"column {self.label!r}: combine requires a matrix"
            )
        if (
            self.matrix is not None
            and self.combine is None
            and self.jump is None
        ):
            raise ConfigurationError(
                f"column {self.label!r}: a linear column needs a jump "
                "vector (pass zeros explicitly if the update has none)"
            )


@dataclass
class _ColumnState:
    """Book-keeping of one still-active column inside the solve loop."""

    index: int  # position in the solver's input column list
    column: FusedColumn
    history: list[float] = field(default_factory=list)


@dataclass
class _IterationPlan:
    """The loop structure for the current set of active columns.

    Everything here depends only on column *membership*, so it is
    computed once per compaction instead of once per iteration — the
    iteration body itself stays almost pure numpy.
    """

    #: ``(matrix id, positions, covers all columns)`` per distinct
    #: operator among the active columns.
    groups: list[tuple[int, list[int], bool]]
    #: ``(position, mask)`` for columns with a dangling correction.
    dangling: list[tuple[int, np.ndarray]]
    #: Dangling columns grouped by shared mask: ``(mask, positions)``
    #: per distinct mask object — one gathered row-sum per group
    #: instead of one python-level masked sum per column.
    dangling_groups: list[tuple[np.ndarray, list[int]]]
    #: Positions of bare-step columns (no matrix).
    step_positions: list[int]
    #: Positions of combine-callback columns.
    combine_positions: list[int]
    #: Positions renormalised to sum 1 after every step.
    normalizing: list[int]
    #: Boolean mask over positions, True where the column normalises.
    normalizing_mask: np.ndarray
    #: Effective per-column tolerances, aligned with positions.
    tols: list[float]
    #: Whether every active column carries a dangling mask (enables the
    #: broadcast correction add instead of per-column strided adds).
    dangling_all: bool


class FusedSolver:
    """Solve many :class:`FusedColumn` fixed points in one stacked loop.

    Parameters
    ----------
    columns:
        The column specs, one per method.
    n:
        Vector length (every start/jump vector must have this length).
    jobs:
        Thread count for row-chunked SpMV.  ``1`` (default) multiplies
        unchunked; higher values split each operator's rows into
        ``jobs`` contiguous ranges computed concurrently.  The result
        is bit-identical for any value.
    dtype:
        ``np.float64`` (default, bit-identical to the scalar loop) or
        ``np.float32`` (opt-in, tolerances floored at
        :data:`FLOAT32_TOLERANCE`).
    emit_metrics:
        Record the ``repro_fused_*`` instruments.  The degenerate
        single-column delegation from
        :func:`~repro.core.power_iteration.power_iterate` passes
        ``False`` so per-method serving metrics stay meaningful.
    """

    def __init__(
        self,
        columns: Sequence[FusedColumn],
        n: int,
        *,
        jobs: int = 1,
        dtype: Any = np.float64,
        emit_metrics: bool = True,
    ) -> None:
        if n <= 0:
            raise ConfigurationError(
                f"vector length must be positive, got {n}"
            )
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ConfigurationError(
                f"dtype must be float64 or float32, got {self._dtype}"
            )
        if self._dtype == np.dtype(np.float32):
            for column in columns:
                if column.step is not None:
                    raise ConfigurationError(
                        "float32 mode requires linear columns; column "
                        f"{column.label!r} uses a bare step callable"
                    )
        self._columns = list(columns)
        self._n = int(n)
        self._jobs = int(jobs)
        self._emit_metrics = emit_metrics

    # ------------------------------------------------------------------
    def _prepared_start(self, column: FusedColumn) -> np.ndarray:
        """The column's start vector, with power_iterate's semantics."""
        n = self._n
        if column.start is None:
            vector = np.full(n, 1.0 / n, dtype=self._dtype)
            return vector
        vector = np.asarray(column.start, dtype=self._dtype).copy()
        if vector.shape != (n,):
            raise ConfigurationError(
                f"start vector has shape {vector.shape}, expected ({n},)"
            )
        total = vector.sum()
        if column.normalize and total > 0:
            vector /= total
        return vector

    def _effective_tol(self, column: FusedColumn) -> float:
        if self._dtype == np.dtype(np.float32):
            return max(column.tol, FLOAT32_TOLERANCE)
        return column.tol

    def _stack_width(self, k: int) -> int:
        """Columns per batch for ``k`` columns; see :func:`stack_width`."""
        return max(1, min(k, stack_width(self._n, self._dtype)))

    def _chunks(
        self, matrix: sp.csr_matrix
    ) -> list[tuple[int, int, sp.csr_matrix]]:
        """Contiguous row ranges of ``matrix``, one per job."""
        n = matrix.shape[0]
        jobs = min(self._jobs, n)
        bounds = np.linspace(0, n, jobs + 1).astype(int)
        return [
            (int(lo), int(hi), matrix[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]

    def solve(self) -> list[tuple[FloatVector, ConvergenceInfo]]:
        """Run the stacked iteration; results align with the columns.

        Returns one ``(vector, info)`` pair per input column, exactly
        what :func:`~repro.core.power_iteration.power_iterate` returns
        per method.

        Raises
        ------
        ConvergenceError
            When a column with ``raise_on_failure`` exhausts its budget
            (the lowest-index failing column reports, matching the
            serial solve order).
        """
        if not self._columns:
            return []
        n = self._n
        dtype = self._dtype
        for column in self._columns:
            if column.matrix is not None and column.matrix.shape != (n, n):
                raise ConfigurationError(
                    f"column {column.label!r} matrix has shape "
                    f"{column.matrix.shape}, expected ({n}, {n})"
                )

        # Cast + row-chunk each distinct operator once per solve.
        prepared: dict[int, sp.csr_matrix] = {}
        chunked: dict[int, list[tuple[int, int, sp.csr_matrix]]] = {}
        for column in self._columns:
            if column.matrix is None or id(column.matrix) in prepared:
                continue
            matrix = column.matrix
            if matrix.dtype != dtype:
                matrix = matrix.astype(dtype)
            prepared[id(column.matrix)] = matrix
            if self._jobs > 1:
                chunked[id(column.matrix)] = self._chunks(matrix)

        results: list[tuple[FloatVector, ConvergenceInfo] | None] = [
            None
        ] * len(self._columns)
        pool = (
            ThreadPoolExecutor(max_workers=self._jobs)
            if self._jobs > 1
            else None
        )
        active_counts: list[int] = []
        width = self._stack_width(len(self._columns))
        try:
            for lo in range(0, len(self._columns), width):
                batch = self._columns[lo : lo + width]
                states = [
                    _ColumnState(index=lo + i, column=c)
                    for i, c in enumerate(batch)
                ]
                # Each batch's stack is carried transposed: XT is
                # (k, n) C-order, so a method's iterate is one
                # *contiguous row* — all per-column reductions
                # (residuals, normalisation totals, dangling mass)
                # read rows of XT at full memory bandwidth instead of
                # paying the cache-line-per-element cost of strided
                # column access.  The (n, k) operand each SpMV needs
                # is materialised per operator group inside the loop.
                XT = np.empty((len(batch), n), dtype=dtype, order="C")
                J = np.zeros((n, len(batch)), dtype=dtype, order="C")
                alphas = np.zeros(len(batch), dtype=dtype)
                for position, column in enumerate(batch):
                    XT[position] = self._prepared_start(column)
                    if column.matrix is not None and column.combine is None:
                        J[:, position] = np.asarray(column.jump, dtype=dtype)
                        alphas[position] = column.alpha
                self._iterate(
                    states,
                    XT,
                    J,
                    alphas,
                    prepared,
                    chunked,
                    pool,
                    results,
                    active_counts,
                )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        if self._emit_metrics and len(self._columns) > 1:
            for count in active_counts:
                _FUSED_ACTIVE_COLUMNS.observe(count)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _spmv(
        self,
        matrix_key: int,
        prepared: dict[int, sp.csr_matrix],
        chunked: dict[int, list[tuple[int, int, sp.csr_matrix]]],
        pool: ThreadPoolExecutor | None,
        block: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``matrix @ block`` — unchunked, or by disjoint row ranges.

        With ``out`` (C-contiguous, same shape) the product lands in
        the caller's buffer; bits match the allocating path exactly.
        """
        if pool is None:
            matrix = prepared[matrix_key]
            if out is not None and _csr_matvecs is not None:
                out.fill(0.0)
                _csr_matvecs(
                    matrix.shape[0],
                    matrix.shape[1],
                    block.shape[1],
                    matrix.indptr,
                    matrix.indices,
                    matrix.data,
                    block.ravel(),
                    out.ravel(),
                )
                return out
            return matrix @ block
        if out is None:
            out = np.empty_like(block)

        def run(lo: int, hi: int, part: sp.csr_matrix) -> None:
            out[lo:hi] = part @ block

        futures = [
            pool.submit(run, lo, hi, part)
            for lo, hi, part in chunked[matrix_key]
        ]
        for future in futures:
            future.result()
        return out

    def _plan(self, states: list[_ColumnState]) -> _IterationPlan:
        """Precompute the loop structure for the active column set."""
        groups: dict[int, list[int]] = {}
        for position, state in enumerate(states):
            if state.column.matrix is not None:
                groups.setdefault(id(state.column.matrix), []).append(
                    position
                )
        dangling = [
            (position, state.column.dangling)
            for position, state in enumerate(states)
            if state.column.dangling is not None
        ]
        mask_groups: dict[int, tuple[np.ndarray, list[int]]] = {}
        for position, mask in dangling:
            entry = mask_groups.setdefault(id(mask), (mask, []))
            entry[1].append(position)
        normalizing = [
            position
            for position, state in enumerate(states)
            if state.column.normalize
        ]
        normalizing_mask = np.zeros(len(states), dtype=bool)
        normalizing_mask[normalizing] = True
        return _IterationPlan(
            groups=[
                (key, positions, len(positions) == len(states))
                for key, positions in groups.items()
            ],
            dangling=dangling,
            dangling_groups=list(mask_groups.values()),
            step_positions=[
                position
                for position, state in enumerate(states)
                if state.column.step is not None
            ],
            combine_positions=[
                position
                for position, state in enumerate(states)
                if state.column.combine is not None
            ],
            normalizing=normalizing,
            normalizing_mask=normalizing_mask,
            tols=[
                self._effective_tol(state.column) for state in states
            ],
            dangling_all=len(dangling) == len(states),
        )

    def _iterate(
        self,
        states: list[_ColumnState],
        XT: np.ndarray,
        J: np.ndarray,
        alphas: np.ndarray,
        prepared: dict[int, sp.csr_matrix],
        chunked: dict[int, list[tuple[int, int, sp.csr_matrix]]],
        pool: ThreadPoolExecutor | None,
        results: list[tuple[FloatVector, ConvergenceInfo] | None],
        active_counts: list[int],
    ) -> None:
        n = self._n
        dtype = self._dtype
        iteration = 0
        plan = self._plan(states)
        alphas_row = alphas[None, :]
        # Persistent per-width buffers — the loop allocates nothing
        # megabyte-scale per iteration (fresh temporaries showed up as
        # the top cost in profiles: page faults on every ~1MB array).
        # ``spare`` is the double-buffer partner of XT: each iteration
        # writes the updated transposed stack into it, and the old XT
        # (whose bits are dead once residuals are taken) becomes the
        # next iteration's spare.
        spare: np.ndarray = np.empty_like(XT)
        y_buf: np.ndarray | None = None
        op_buf: np.ndarray | None = None
        while states:
            iteration += 1
            k = len(states)
            active_counts.append(k)
            if y_buf is None:
                y_buf = np.empty((n, k), dtype=dtype)
                op_buf = np.empty((n, k), dtype=dtype)

            # --- one SpMV per distinct operator, amortised over its
            # columns; bare-step columns have no linear part to compute.
            # Operands are materialised from XT's rows: a single-column
            # group reuses the row buffer as an (n, 1) view, wider
            # groups pay one gather + transpose (``order="C"`` matters:
            # plain np.array would keep the transposed layout).
            Y: np.ndarray | None = None
            for matrix_key, positions, covers_all in plan.groups:
                if covers_all:
                    np.copyto(op_buf, XT.T)
                    Y = self._spmv(
                        matrix_key,
                        prepared,
                        chunked,
                        pool,
                        op_buf,
                        out=y_buf,
                    )
                    break
                Y = y_buf
                if len(positions) == 1:
                    block = XT[positions[0]][:, None]
                else:
                    block = np.array(XT[positions].T, order="C")
                Y[:, positions] = self._spmv(
                    matrix_key, prepared, chunked, pool, block
                )

            # --- dangling corrections, applied to the SpMV result
            # before damping (mirrors StochasticOperator.apply).  Rows
            # of XT are contiguous, so each masked sum is a cheap
            # gather; when every column has a mask the scalar adds
            # collapse into one broadcast.
            if plan.dangling:
                corrections = np.zeros(k, dtype=dtype)
                for mask, positions in plan.dangling_groups:
                    if len(positions) == 1:
                        corrections[positions[0]] = (
                            XT[positions[0]][mask].sum() / n
                        )
                        continue
                    rows = XT if len(positions) == k else XT[positions]
                    # rows[:, mask] comes back F-ordered (advanced
                    # indexing on the trailing axis); the C copy makes
                    # axis-1 sums reduce each row exactly like the
                    # scalar path's 1-D masked sums.
                    gathered = np.ascontiguousarray(rows[:, mask])
                    corrections[positions] = gathered.sum(axis=1) / n
                if plan.dangling_all:
                    Y += corrections[None, :]  # type: ignore[operator]
                else:
                    for position, _ in plan.dangling:
                        Y[:, position] += corrections[position]  # type: ignore[index]

            # --- the affine update, in place on the SpMV result (its
            # combine-column inputs are snapshotted first).  Combine
            # columns carry alpha=0 and a zero jump, so the broadcast
            # writes zeros there and the callback overwrites them;
            # standard columns get exactly the per-column expression
            # (the broadcast is elementwise).
            if not plan.step_positions:
                # .copy() — not ascontiguousarray — because a (n, 1)
                # stack's lone column is already contiguous and a view
                # would be corrupted by the in-place multiply below.
                combine_inputs = [
                    Y[:, position].copy()  # type: ignore[index]
                    for position in plan.combine_positions
                ]
                np.multiply(Y, alphas_row, out=Y)
                np.add(Y, J, out=Y)
                U = Y
                for position, applied in zip(
                    plan.combine_positions, combine_inputs
                ):
                    U[:, position] = states[position].column.combine(
                        applied, XT[position]
                    )
            else:
                # Bare-step columns (the power_iterate delegation) have
                # no SpMV result to broadcast over; update per column.
                # op_buf's contents (this iteration's SpMV operand) are
                # dead once Y holds the product, so it hosts U.
                U = op_buf
                for position, state in enumerate(states):
                    column = state.column
                    if column.step is not None:
                        U[:, position] = column.step(XT[position])
                    elif column.combine is not None:
                        U[:, position] = column.combine(
                            np.ascontiguousarray(Y[:, position]),  # type: ignore[index]
                            XT[position],
                        )
                    else:
                        U[:, position] = (
                            column.alpha * Y[:, position]  # type: ignore[index]
                            + J[:, position]
                        )
            # The updated stack, transposed back into the spare row
            # buffer (an explicit strided copy — never a view, unlike
            # ascontiguousarray on a (n, 1) stack).  From here on only
            # UT is read; U aliases a reusable buffer.
            np.copyto(spare, U.T)
            UT = spare

            # --- per-column renormalisation, on UT only (next
            # iteration's operand is rebuilt from UT, so the (n, k)
            # layout never needs the divide).  Dividing by exactly 1.0
            # is a bitwise no-op, so one broadcast divide covers both
            # the normalizing and the non-normalizing columns (and is
            # skipped entirely when no column normalises).  Row sums of
            # UT use the same pairwise reduction as a 1-D ``.sum()``.
            if plan.normalizing:
                totals = UT.sum(axis=1)
                divisors = np.where(
                    plan.normalizing_mask & (totals > 0),
                    totals,
                    dtype.type(1.0),
                )
                np.divide(UT, divisors[:, None], out=UT)

            # --- residuals.  XT's bits are dead after this point (the
            # next iterate is UT), so it doubles as the |U - X| scratch
            # buffer; row sums then keep the pairwise reduction of the
            # scalar path.
            np.subtract(UT, XT, out=XT)
            np.abs(XT, out=XT)
            residuals = XT.sum(axis=1).tolist()

            # --- convergence masks.
            finished: list[int] = []
            failure: ConvergenceError | None = None
            failure_index = len(self._columns)
            for position, state in enumerate(states):
                column = state.column
                residual = residuals[position]
                state.history.append(residual)
                if residual <= plan.tols[position]:
                    results[state.index] = (
                        UT[position].copy(),
                        ConvergenceInfo(
                            iterations=iteration,
                            residual=residual,
                            converged=True,
                            residual_history=tuple(state.history),
                        ),
                    )
                    finished.append(position)
                elif iteration >= column.max_iterations:
                    if column.raise_on_failure:
                        if state.index < failure_index:
                            failure_index = state.index
                            failure = ConvergenceError(
                                f"power iteration did not reach "
                                f"tol={plan.tols[position]} within "
                                f"{column.max_iterations} iterations "
                                f"(last residual {residual:.3e})",
                                iterations=column.max_iterations,
                                residual=residual,
                            )
                        continue
                    results[state.index] = (
                        UT[position].copy(),
                        ConvergenceInfo(
                            iterations=column.max_iterations,
                            residual=residual,
                            converged=False,
                            residual_history=tuple(state.history),
                        ),
                    )
                    finished.append(position)
            if failure is not None:
                raise failure

            # --- drop finished columns from the stack.
            if finished:
                keep = [
                    position
                    for position in range(k)
                    if position not in set(finished)
                ]
                states = [states[position] for position in keep]
                if not states:
                    return
                XT = UT[keep]
                J = np.ascontiguousarray(J[:, keep])
                alphas = alphas[keep]
                alphas_row = alphas[None, :]
                plan = self._plan(states)
                # Stack width changed: rebuild the persistent buffers.
                spare = np.empty_like(XT)
                y_buf = None
                op_buf = None
            else:
                # Swap: UT (== spare) becomes the new iterate, and the
                # old XT — whose bits died in the residual step — is
                # next iteration's spare.
                XT, spare = UT, XT


def solve_methods(
    network: Any,
    methods: Sequence[Any],
    *,
    jobs: int = 1,
    dtype: Any = np.float64,
) -> list[tuple[FloatVector, ConvergenceInfo | None]]:
    """Score many :class:`~repro.ranking.RankingMethod`s in one pass.

    Methods that expose a fused column
    (:meth:`~repro.ranking.RankingMethod.fused_column` returns a spec)
    are stacked and solved together; the rest fall back to their own
    ``scores()`` — closed forms (CC, RAM, ATT-ONLY) and structurally
    unfusable iterations (WSDM's bipartite multi-matrix loop).  Each
    method's ``last_convergence`` is populated exactly as a direct
    ``scores()`` call would.

    Returns ``(scores, info)`` per method, in input order; ``info`` is
    ``None`` for closed forms.  With ``dtype=np.float64`` (default) the
    vectors are bit-identical to per-method solves.
    """
    import time as _time

    results: list[tuple[FloatVector, ConvergenceInfo | None] | None] = [
        None
    ] * len(methods)
    columns: list[FusedColumn] = []
    positions: list[int] = []
    for position, method in enumerate(methods):
        column = method.fused_column(network)
        if column is not None:
            columns.append(column)
            positions.append(position)
    # Stacking only pays once enough columns share an operator (see
    # FUSE_MIN_COLUMNS); narrower groups fall through to the scalar
    # loop below with bit-identical results.  Explicit float32 or
    # threaded requests always stack — the scalar fallback cannot
    # honour them.
    if columns and jobs == 1 and np.dtype(dtype) == np.float64:
        group_sizes: dict[int, int] = {}
        for column in columns:
            key = id(column.matrix)
            group_sizes[key] = group_sizes.get(key, 0) + 1
        kept = [
            (column, position)
            for column, position in zip(columns, positions)
            if group_sizes[id(column.matrix)] >= FUSE_MIN_COLUMNS
        ]
        columns = [column for column, _ in kept]
        positions = [position for _, position in kept]
    if columns:
        started = _time.perf_counter()
        solver = FusedSolver(
            columns, network.n_papers, jobs=jobs, dtype=dtype
        )
        try:
            solved = solver.solve()
        except ConvergenceError:
            _FUSED_PASSES.inc(outcome="error")
            raise
        elapsed = _time.perf_counter() - started
        _FUSED_PASSES.inc(outcome="ok")
        _FUSED_PASS_SECONDS.observe(elapsed)
        for position, column, (vector, info) in zip(
            positions, columns, solved
        ):
            _FUSED_COLUMN_ITERATIONS.inc(
                info.iterations, method=column.label
            )
            methods[position].last_convergence = info
            results[position] = (vector, info)
    for position, method in enumerate(methods):
        if results[position] is None:
            scores = method.scores(network)
            results[position] = (scores, method.last_convergence)
    return results  # type: ignore[return-value]
