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
correction, L1 renormalisation, residual tracking).  FutureRank adds
two stacked terms after the jump: a uniform mass, and its author
reinforcement ``beta * norm(B.T @ norm(B @ X))``, computed with one
product each way over the whole stack per distinct incidence matrix
``B`` (the other columns receive ``-0.0``).  Columns carry their
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
The fused path is **bit-identical** to the per-method
:func:`~repro.core.power_iteration.power_iterate` loop, for any subset
of methods and any drop order.  This is not a
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
* ``B @ X`` and ``B.T @ A`` run scipy's ``csr_matvecs`` and
  ``csc_matvecs``, which accumulate each output column in the order
  the 1-D ``csr_matvec`` and ``csc_matvec`` of the scalar step do;
* adding ``-0.0`` leaves every value's bits alone (adding ``0.0``
  does not: it turns ``-0.0`` into ``0.0``), so columns without
  FutureRank's terms ride its broadcast adds;
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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - import guard exercised by environment
    # The same C kernels scipy's ``csr @ dense`` and ``csr.T @ dense``
    # dispatches land on, but callable with a *preallocated* output
    # (they accumulate into y).  Calling them directly skips a fresh
    # megabyte-scale result allocation per iteration; values are
    # identical because scipy's own path is exactly zeros() + the
    # kernel.
    from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover
    _csc_matvecs = _csr_matvecs = None

from repro._typing import FloatVector
from repro.errors import ConfigurationError, ConvergenceError
from repro.obs.registry import REGISTRY
from repro.ranking import ConvergenceInfo

__all__ = [
    "FUSE_MIN_COLUMNS",
    "FusedColumn",
    "FusedSolver",
    "solve_methods",
    "stack_width",
]

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


def stack_width(n: int) -> int:
    """Columns per stacked batch for vectors of ``n`` entries.

    One stacked buffer stays near :data:`STACK_BYTES_BUDGET`, and no
    batch is narrower than :data:`MIN_STACK_WIDTH`.  Batching is a pure
    scheduling choice — each column's arithmetic is unchanged, so
    results are bit-identical at any width.
    """
    column_bytes = int(n) * np.dtype(np.float64).itemsize
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
    computes ``alpha * (matrix @ x + dangling correction) + jump``,
    then adds ``uniform`` and the reinforcement term when set — or a
    bare ``step`` callable (the degenerate form
    :func:`~repro.core.power_iteration.power_iterate` delegates
    through).

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
        entry distribution, ...).  Required for linear columns.
    dangling:
        Optional boolean mask of dangling papers; when set, the SpMV
        result receives the ``sum(x[dangling]) / n`` correction before
        damping, exactly as
        :meth:`~repro.graph.matrix.StochasticOperator.apply` does.
    uniform:
        Optional scalar added to every entry after the jump
        (FutureRank's ``(1 - alpha - beta - gamma) / n``).  ``None``
        skips the add, which differs from adding ``0.0``: that turns
        ``-0.0`` into ``0.0``.
    incidence, beta:
        Optional CSR incidence ``B`` (authors x papers) of a mutual
        reinforcement term, added last: ``beta * norm(B.T @ norm(B @
        x))``, where ``norm`` divides a vector by its sum, or returns
        the uniform vector when the sum is not positive (FutureRank's
        author term).  Columns sharing the *same* incidence object
        share one product each way per iteration.
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
    uniform: float | None = None
    incidence: sp.csr_matrix | None = None
    beta: float = 0.0
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
        if self.step is not None and (
            self.uniform is not None or self.incidence is not None
        ):
            raise ConfigurationError(
                f"column {self.label!r}: uniform and incidence require "
                "a matrix"
            )
        if self.matrix is not None and self.jump is None:
            raise ConfigurationError(
                f"column {self.label!r}: a linear column needs a jump "
                "vector (pass zeros explicitly if the update has none)"
            )

    def key(self) -> Hashable | None:
        """A hashable name of the fixed-point problem this column poses.

        Columns with equal keys iterate to the same bits, so a sweep
        solves one of them for all (:meth:`repro.eval.tuning.Tuner.sweep`).
        ``matrix``, ``dangling`` and ``incidence`` enter by identity:
        whoever compares keys must keep those objects alive meanwhile,
        or a freed object's ``id`` could name the next allocation.
        ``jump`` and ``start`` enter by the SHA-256 of their float64
        bytes, the scalars by their exact bits (so ``0.0`` and ``-0.0``,
        which the solver tells apart, stay apart), and ``label`` not at
        all: NO-ATT's columns are AttRank's.  A bare-step column returns
        ``None``, since its map cannot be compared; it is never merged.
        """
        if self.step is not None:
            return None
        jump = _digest(self.jump)
        return (
            id(self.matrix),
            id(self.dangling),
            id(self.incidence),
            _bits(self.alpha),
            _bits(self.uniform),
            _bits(self.beta),
            jump,
            jump if self.start is self.jump else _digest(self.start),
            bool(self.normalize),
            _bits(self.tol),
            int(self.max_iterations),
            bool(self.raise_on_failure),
        )


def _bits(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _digest(vector: FloatVector | None) -> bytes | None:
    """SHA-256 of ``vector``'s float64 bytes, read in place."""
    if vector is None:
        return None
    return hashlib.sha256(
        np.ascontiguousarray(vector, dtype=np.float64)
    ).digest()


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
    #: Each column's uniform mass, and ``-0.0`` for columns without
    #: one (adding ``-0.0`` leaves every value's bits alone; ``0.0``
    #: would turn ``-0.0`` into ``0.0``); ``None`` when no column has
    #: one.
    uniform: np.ndarray | None
    #: ``(incidence id, other positions, betas)`` per distinct
    #: reinforcement incidence among the active columns: the positions
    #: outside its group, and a row of each column's ``beta`` (0 off
    #: the group).
    reinforcement: list[tuple[int, list[int], np.ndarray]]
    #: Positions renormalised to sum 1 after every step.
    normalizing: list[int]
    #: Boolean mask over positions, True where the column normalises.
    normalizing_mask: np.ndarray
    #: Effective per-column tolerances, aligned with positions.
    tols: list[float]
    #: Whether every active column carries a dangling mask (enables the
    #: broadcast correction add instead of per-column strided adds).
    dangling_all: bool


def _product(
    matrix: sp.csr_matrix,
    block: np.ndarray,
    out: np.ndarray,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """``matrix @ block``, or ``matrix.T @ block``, into ``out``.

    ``block`` and ``out`` are C-order ``(rows, columns)`` stacks.  The
    kernels are the ones scipy's own ``@`` runs (``csr_matvecs``, and
    ``csc_matvecs`` for the transpose, whose CSC arrays are ``matrix``'s
    CSR arrays), so each column gets the bits of the 1-D product.
    """
    if _csr_matvecs is None:  # pragma: no cover
        np.copyto(out, (matrix.T if transpose else matrix) @ block)
        return out
    rows, cols = matrix.shape
    kernel = _csr_matvecs
    if transpose:
        rows, cols, kernel = cols, rows, _csc_matvecs
    # The kernel trusts these sizes, and writes through out's memory.
    if not (
        out.flags.c_contiguous
        and out.shape == (rows, block.shape[1])
        and block.shape[0] == cols
    ):
        raise ValueError(
            f"cannot multiply a {(rows, cols)} matrix by a "
            f"{block.shape} stack into {out.shape}"
        )
    out.fill(0.0)
    kernel(
        rows,
        cols,
        block.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        block.ravel(),
        out.ravel(),
    )
    return out


def _normalize_columns(stack: np.ndarray) -> None:
    """Divide each column of ``stack`` by its sum, in place.

    A column whose sum is not positive becomes the uniform vector, as
    in FutureRank's scalar ``_normalized``.  Each total is the 1-D
    pairwise sum of its strided column (never an ``axis=0``
    reduction), and one broadcast divides, so every column gets the
    scalar bits.
    """
    totals = np.array(
        [stack[:, column].sum() for column in range(stack.shape[1])],
        dtype=stack.dtype,
    )
    empty = totals <= 0
    totals[empty] = 1.0
    np.divide(stack, totals, out=stack)
    if empty.any():
        stack[:, empty] = 1.0 / max(stack.shape[0], 1)


class FusedSolver:
    """Solve many :class:`FusedColumn` fixed points in one stacked loop.

    Parameters
    ----------
    columns:
        The column specs, one per method.
    n:
        Vector length (every start, jump and dangling vector must have
        this length).
    """

    def __init__(self, columns: Sequence[FusedColumn], n: int) -> None:
        if n <= 0:
            raise ConfigurationError(
                f"vector length must be positive, got {n}"
            )
        self._columns = list(columns)
        self._n = int(n)

    # ------------------------------------------------------------------
    def _prepared_start(self, column: FusedColumn) -> np.ndarray:
        """The column's start vector, with power_iterate's semantics."""
        n = self._n
        if column.start is None:
            return np.full(n, 1.0 / n, dtype=np.float64)
        vector = np.asarray(column.start, dtype=np.float64).copy()
        if vector.shape != (n,):
            raise ConfigurationError(
                f"start vector has shape {vector.shape}, expected ({n},)"
            )
        total = vector.sum()
        if column.normalize and total > 0:
            vector /= total
        return vector

    def _stack_width(self, k: int) -> int:
        """Columns per batch for ``k`` columns; see :func:`stack_width`."""
        return max(1, min(k, stack_width(self._n)))

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
        for column in self._columns:
            if column.matrix is not None and column.matrix.shape != (n, n):
                raise ConfigurationError(
                    f"column {column.label!r} matrix has shape "
                    f"{column.matrix.shape}, expected ({n}, {n})"
                )
            if (
                column.incidence is not None
                and column.incidence.shape[1] != n
            ):
                raise ConfigurationError(
                    f"column {column.label!r} incidence has shape "
                    f"{column.incidence.shape}, expected (*, {n})"
                )
            for name, vector in (
                ("jump", column.jump if column.matrix is not None else None),
                ("dangling mask", column.dangling),
            ):
                if vector is not None and np.shape(vector) != (n,):
                    raise ConfigurationError(
                        f"column {column.label!r} {name} has shape "
                        f"{np.shape(vector)}, expected ({n},)"
                    )

        # Cast each distinct operator and incidence once per solve (the
        # C kernels need float64 on both sides).
        prepared: dict[int, sp.csr_matrix] = {}
        for column in self._columns:
            for matrix in (column.matrix, column.incidence):
                if matrix is None or id(matrix) in prepared:
                    continue
                prepared[id(matrix)] = (
                    matrix
                    if matrix.dtype == np.float64
                    else matrix.astype(np.float64)
                )

        results: list[tuple[FloatVector, ConvergenceInfo] | None] = [
            None
        ] * len(self._columns)
        active_counts: list[int] = []
        width = self._stack_width(len(self._columns))
        for lo in range(0, len(self._columns), width):
            batch = self._columns[lo : lo + width]
            states = [
                _ColumnState(index=lo + i, column=c)
                for i, c in enumerate(batch)
            ]
            # Each batch's stack is carried transposed: XT is (k, n)
            # C-order, so a method's iterate is one *contiguous row* —
            # all per-column reductions (residuals, normalisation
            # totals, dangling mass) read rows of XT at full memory
            # bandwidth instead of paying the cache-line-per-element
            # cost of strided column access.  The (n, k) operand each
            # SpMV needs is materialised per operator group inside the
            # loop.
            XT = np.empty((len(batch), n), dtype=np.float64, order="C")
            J = np.zeros((n, len(batch)), dtype=np.float64, order="C")
            alphas = np.zeros(len(batch), dtype=np.float64)
            for position, column in enumerate(batch):
                XT[position] = self._prepared_start(column)
                if column.matrix is not None:
                    J[:, position] = column.jump
                    alphas[position] = column.alpha
            self._iterate(
                states, XT, J, alphas, prepared, results, active_counts
            )
        if len(self._columns) > 1:
            for count in active_counts:
                _FUSED_ACTIVE_COLUMNS.observe(count)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _plan(self, states: list[_ColumnState]) -> _IterationPlan:
        """Precompute the loop structure for the active column set."""
        groups: dict[int, list[int]] = {}
        incidences: dict[int, list[int]] = {}
        for position, state in enumerate(states):
            if state.column.matrix is not None:
                groups.setdefault(id(state.column.matrix), []).append(
                    position
                )
            if state.column.incidence is not None:
                incidences.setdefault(
                    id(state.column.incidence), []
                ).append(position)
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
            uniform=(
                np.array(
                    [
                        -0.0 if s.column.uniform is None else s.column.uniform
                        for s in states
                    ],
                    dtype=np.float64,
                )
                if any(s.column.uniform is not None for s in states)
                else None
            ),
            reinforcement=[
                (
                    key,
                    [p for p in range(len(states)) if p not in positions],
                    np.array(
                        [
                            states[p].column.beta if p in positions else 0.0
                            for p in range(len(states))
                        ],
                        dtype=np.float64,
                    ),
                )
                for key, positions in incidences.items()
            ],
            normalizing=normalizing,
            normalizing_mask=normalizing_mask,
            tols=[state.column.tol for state in states],
            dangling_all=len(dangling) == len(states),
        )

    def _reinforce(
        self,
        plan: _IterationPlan,
        XT: np.ndarray,
        U: np.ndarray,
        stack: np.ndarray | None,
        prepared: dict[int, sp.csr_matrix],
        buffers: dict[int, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Add ``beta * norm(B.T @ norm(B @ x))`` to each group's columns.

        Both products run over the whole stack: ``stack`` is ``XT.T``
        when the SpMV already built it this iteration (``None``
        otherwise, and then ``papers``, free until the second product,
        takes a copy).  The columns outside the group get ``-0.0``
        added, which leaves their bits alone.  ``buffers`` holds each
        group's ``(authors, papers)`` products for the current stack
        width.
        """
        k = U.shape[1]
        for key, others, betas in plan.reinforcement:
            incidence = prepared[key]
            if key not in buffers:
                buffers[key] = (
                    np.empty((incidence.shape[0], k)),
                    np.empty((self._n, k)),
                )
            authors, papers = buffers[key]
            operand = stack
            if operand is None:
                operand = papers
                np.copyto(operand, XT.T)
            _normalize_columns(_product(incidence, operand, authors))
            _normalize_columns(
                _product(incidence, authors, papers, transpose=True)
            )
            np.multiply(papers, betas, out=papers)
            if others:
                papers[:, others] = -0.0
            np.add(U, papers, out=U)

    def _iterate(
        self,
        states: list[_ColumnState],
        XT: np.ndarray,
        J: np.ndarray,
        alphas: np.ndarray,
        prepared: dict[int, sp.csr_matrix],
        results: list[tuple[FloatVector, ConvergenceInfo] | None],
        active_counts: list[int],
    ) -> None:
        n = self._n
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
        reinforcement_bufs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        while states:
            iteration += 1
            k = len(states)
            active_counts.append(k)
            if y_buf is None:
                y_buf = np.empty((n, k))
                op_buf = np.empty((n, k))

            # --- one SpMV per distinct operator, amortised over its
            # columns; bare-step columns have no linear part to compute.
            # Operands are materialised from XT's rows: a single-column
            # group reuses the row buffer as an (n, 1) view, wider
            # groups pay one gather + transpose (``order="C"`` matters:
            # plain np.array would keep the transposed layout).
            Y: np.ndarray | None = None
            stacked = False  # whether op_buf holds XT.T this iteration
            for matrix_key, positions, covers_all in plan.groups:
                if covers_all:
                    np.copyto(op_buf, XT.T)
                    stacked = True
                    Y = _product(prepared[matrix_key], op_buf, y_buf)
                    break
                Y = y_buf
                if len(positions) == 1:
                    block = XT[positions[0]][:, None]
                else:
                    block = np.array(XT[positions].T, order="C")
                Y[:, positions] = prepared[matrix_key] @ block

            # --- dangling corrections, applied to the SpMV result
            # before damping (mirrors StochasticOperator.apply).  Rows
            # of XT are contiguous, so each masked sum is a cheap
            # gather; when every column has a mask the scalar adds
            # collapse into one broadcast.
            if plan.dangling:
                corrections = np.zeros(k)
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

            # --- the affine update, in place on the SpMV result: one
            # elementwise broadcast, so each column gets exactly its
            # scalar expression.
            if not plan.step_positions:
                np.multiply(Y, alphas_row, out=Y)
                np.add(Y, J, out=Y)
                U = Y
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
                    else:
                        U[:, position] = (
                            column.alpha * Y[:, position]  # type: ignore[index]
                            + J[:, position]
                        )

            # --- FutureRank's terms, in its scalar step's order: the
            # uniform mass, then the author reinforcement.  A stack
            # without FutureRank columns skips both.
            if plan.uniform is not None:
                np.add(U, plan.uniform, out=U)
            if plan.reinforcement:
                self._reinforce(
                    plan,
                    XT,
                    U,
                    op_buf if stacked else None,
                    prepared,
                    reinforcement_bufs,
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
                    plan.normalizing_mask & (totals > 0), totals, 1.0
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
                reinforcement_bufs = {}
            else:
                # Swap: UT (== spare) becomes the new iterate, and the
                # old XT — whose bits died in the residual step — is
                # next iteration's spare.
                XT, spare = UT, XT


def solve_methods(
    network: Any, methods: Sequence[Any]
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
    ``None`` for closed forms.  The vectors are bit-identical to
    per-method solves.
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
    # loop below with bit-identical results.
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
        solver = FusedSolver(columns, network.n_papers)
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
