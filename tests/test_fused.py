"""The fused solver's bit-identity contract, masks and batching.

The headline property — asserted with ``np.array_equal``, never a
tolerance — is that stacking any subset of methods into one
:class:`~repro.core.fused.FusedSolver` pass returns exactly the bits
the per-method scalar solves produce, for any drop order of the
convergence masks.  docs/SOLVER.md derives why.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fused as fused_module
from repro.baselines import make_method
from repro.core.fused import (
    FUSE_MIN_COLUMNS,
    FusedColumn,
    FusedSolver,
    solve_methods,
    stack_width,
)
from repro.core.power_iteration import power_iterate
from repro.errors import ConfigurationError, ConvergenceError
from repro.eval.grids import grid_for
from repro.eval.split import split_by_ratio
from repro.graph.citation_network import CitationNetwork
from repro.synth.profiles import generate_dataset

FUSABLE = [
    ("AR", dict(alpha=0.2, beta=0.5, gamma=0.3)),
    ("PR", dict(alpha=0.5)),
    ("CR", dict(tau_dir=2.0)),
    ("FR", dict(alpha=0.4, beta=0.1, rho=-0.3)),
    ("ECM", dict(alpha=0.3, gamma=0.4)),
]


@pytest.fixture(scope="module")
def net():
    return generate_dataset("hep-th", size="tiny", seed=7)


@pytest.fixture(scope="module")
def reference(net):
    """Per-method scalar solves: scores and convergence info."""
    out = {}
    for position, (label, params) in enumerate(FUSABLE):
        method = make_method(label, **params)
        scores = np.asarray(method.scores(net))
        out[position] = (scores, method.last_convergence)
    return out


def _columns(net, positions):
    return [
        make_method(FUSABLE[i][0], **FUSABLE[i][1]).fused_column(net)
        for i in positions
    ]


class TestBitIdentity:
    def test_full_stack_matches_scalar_solves(self, net, reference):
        solver = FusedSolver(
            _columns(net, range(len(FUSABLE))), net.n_papers
        )
        for position, (scores, info) in enumerate(solver.solve()):
            want_scores, want_info = reference[position]
            np.testing.assert_array_equal(scores, want_scores)
            assert info.iterations == want_info.iterations
            assert info.residual == want_info.residual
            assert info.residual_history == want_info.residual_history

    @pytest.mark.parametrize(
        "combo",
        [
            combo
            for r in (1, 2, 3)
            for combo in itertools.combinations(range(len(FUSABLE)), r)
        ],
        ids=lambda combo: "+".join(FUSABLE[i][0] for i in combo),
    )
    def test_every_small_subset(self, net, reference, combo):
        solver = FusedSolver(_columns(net, combo), net.n_papers)
        for position, (scores, info) in zip(combo, solver.solve()):
            want_scores, want_info = reference[position]
            np.testing.assert_array_equal(scores, want_scores)
            assert info.residual_history == want_info.residual_history

    def test_single_column_degenerates_to_power_iterate(self, net):
        """m=1 is exactly the legacy scalar loop (which delegates here)."""
        column = _columns(net, [1])[0]
        fused_scores, fused_info = FusedSolver(
            [column], net.n_papers
        ).solve()[0]
        def legacy_step(x):
            y = column.matrix @ x
            if column.dangling is not None:
                y = y + x[column.dangling].sum() / net.n_papers
            return column.alpha * y + column.jump

        legacy_scores, legacy_info = power_iterate(
            legacy_step,
            net.n_papers,
            tol=column.tol,
            max_iterations=column.max_iterations,
            start=column.start,
        )
        np.testing.assert_array_equal(fused_scores, legacy_scores)
        assert fused_info.iterations == legacy_info.iterations

    def test_wide_stack_batches_bitwise(self, net, monkeypatch):
        """Column batching is pure scheduling — bits never change."""
        monkeypatch.setattr(fused_module, "STACK_BYTES_BUDGET", 1)
        monkeypatch.setattr(fused_module, "MIN_STACK_WIDTH", 7)
        alphas = np.linspace(0.05, 0.95, 23)
        methods = [make_method("PR", alpha=float(a)) for a in alphas]
        solver = FusedSolver(
            [m.fused_column(net) for m in methods], net.n_papers
        )
        assert solver._stack_width(len(methods)) == 7
        for (scores, _), alpha in zip(solver.solve(), alphas):
            want = make_method("PR", alpha=float(alpha)).scores(net)
            np.testing.assert_array_equal(scores, np.asarray(want))


class TestConvergenceMasks:
    def test_column_dropped_at_first_iteration(self, net, reference):
        """A column converging instantly leaves the others' bits alone."""
        columns = _columns(net, range(len(FUSABLE)))
        # A tolerance of 1.0 is met by the first residual (probability
        # vectors differ by at most 2 in L1 after one step... not
        # guaranteed below 1.0 — so solve solo first to learn it).
        solo = FusedSolver([columns[1]], net.n_papers).solve()[0][1]
        loose = FusedColumn(
            label=columns[1].label,
            matrix=columns[1].matrix,
            alpha=columns[1].alpha,
            jump=columns[1].jump,
            dangling=columns[1].dangling,
            start=columns[1].start,
            tol=solo.residual_history[0] * 1.0001,
        )
        stacked = [columns[0], loose, columns[2]]
        results = FusedSolver(stacked, net.n_papers).solve()
        assert results[1][1].iterations == 1
        np.testing.assert_array_equal(results[0][0], reference[0][0])
        np.testing.assert_array_equal(results[2][0], reference[2][0])
        assert (
            results[0][1].residual_history
            == reference[0][1].residual_history
        )

    def test_failure_raises_for_lowest_index(self, net):
        columns = _columns(net, [0, 1])
        starved = [
            FusedColumn(
                label=c.label,
                matrix=c.matrix,
                alpha=c.alpha,
                jump=c.jump,
                dangling=c.dangling,
                start=c.start,
                max_iterations=1,
            )
            for c in columns
        ]
        with pytest.raises(ConvergenceError) as caught:
            FusedSolver(starved, net.n_papers).solve()
        assert caught.value.iterations == 1

    def test_failure_without_raise_reports_unconverged(self, net):
        c = _columns(net, [0])[0]
        lax = FusedColumn(
            label=c.label,
            matrix=c.matrix,
            alpha=c.alpha,
            jump=c.jump,
            dangling=c.dangling,
            start=c.start,
            max_iterations=2,
            raise_on_failure=False,
        )
        scores, info = FusedSolver([lax], net.n_papers).solve()[0]
        assert not info.converged
        assert info.iterations == 2
        assert np.all(np.isfinite(scores))


class TestSolveMethodsDispatch:
    def test_narrow_panel_matches_and_skips_stacking(self, net, monkeypatch):
        """< FUSE_MIN_COLUMNS per operator: scalar path, same bits."""
        stacked = []
        real_solve = FusedSolver.solve

        def counting_solve(self):
            stacked.append(len(self._columns))
            return real_solve(self)

        monkeypatch.setattr(FusedSolver, "solve", counting_solve)
        methods = [make_method(l, **p) for l, p in FUSABLE]
        solved = solve_methods(net, methods)
        for position, (scores, info) in enumerate(solved):
            want = np.asarray(
                make_method(*FUSABLE[position][:1], **FUSABLE[position][1])
                .scores(net)
            )
            np.testing.assert_array_equal(scores, want)
            assert info is not None
        # The 5-method panel's largest operator group is 4 wide, so
        # every stacked solve was a scalar (m=1) delegation.
        assert all(width == 1 for width in stacked)

    def test_wide_grid_is_stacked(self, net, monkeypatch):
        stacked = []
        real_solve = FusedSolver.solve

        def counting_solve(self):
            stacked.append(len(self._columns))
            return real_solve(self)

        monkeypatch.setattr(FusedSolver, "solve", counting_solve)
        methods = [
            make_method("PR", alpha=float(a))
            for a in np.linspace(0.05, 0.95, FUSE_MIN_COLUMNS)
        ]
        solve_methods(net, methods)
        assert FUSE_MIN_COLUMNS in stacked

    def test_unfusable_methods_fall_back(self, net):
        methods = [make_method("CC"), make_method("RAM", gamma=0.4)]
        solved = solve_methods(net, methods)
        for (scores, _info), method in zip(
            solved, [make_method("CC"), make_method("RAM", gamma=0.4)]
        ):
            np.testing.assert_array_equal(
                scores, np.asarray(method.scores(net))
            )


class TestFusedColumnValidation:
    def test_needs_exactly_one_of_matrix_step(self, net):
        with pytest.raises(ConfigurationError, match="exactly one"):
            FusedColumn(label="neither")

    def test_linear_column_needs_jump(self, net):
        matrix = _columns(net, [1])[0].matrix
        with pytest.raises(ConfigurationError, match="jump"):
            FusedColumn(label="nojump", matrix=matrix)

    def test_bad_tol_and_budget(self):
        with pytest.raises(ConfigurationError, match="tol"):
            FusedColumn(label="t", step=lambda x: x, tol=0.0)
        with pytest.raises(ConfigurationError, match="max_iterations"):
            FusedColumn(label="m", step=lambda x: x, max_iterations=0)

    def test_jump_of_the_wrong_length_is_refused(self):
        column = FusedColumn(
            label="long",
            matrix=sp.identity(4, format="csr"),
            alpha=0.5,
            jump=np.full(5, 0.1),
        )
        with pytest.raises(
            ConfigurationError, match=r"'long' jump has shape \(5,\)"
        ):
            FusedSolver([column], 4).solve()

    def test_dangling_mask_of_the_wrong_length_is_refused(self):
        column = FusedColumn(
            label="short",
            matrix=sp.identity(4, format="csr"),
            alpha=0.5,
            jump=np.full(4, 0.125),
            dangling=np.array([True, False, True]),
        )
        with pytest.raises(
            ConfigurationError,
            match=r"'short' dangling mask has shape \(3,\)",
        ):
            FusedSolver([column], 4).solve()


# ---------------------------------------------------------------------------
# Hypothesis: subsets and drop orders — always the scalar bits.
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    subset=st.sets(
        st.integers(0, len(FUSABLE) - 1), min_size=1, max_size=5
    ),
    data=st.data(),
)
def test_any_subset_any_drop_order(subset, data):
    """Random subsets with randomly loosened tolerances (which shuffle
    the order columns drop out of the stack) stay bit-identical to the
    scalar solves with the same tolerances."""
    net = generate_dataset("hep-th", size="tiny", seed=7)
    positions = sorted(subset)
    columns = []
    for i in positions:
        c = make_method(FUSABLE[i][0], **FUSABLE[i][1]).fused_column(net)
        tol = data.draw(
            st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
            label=f"tol[{FUSABLE[i][0]}]",
        )
        columns.append(dataclasses.replace(c, tol=tol))
    fused = FusedSolver(columns, net.n_papers).solve()
    for column, (scores, info) in zip(columns, fused):
        solo_scores, solo_info = FusedSolver(
            [column], net.n_papers
        ).solve()[0]
        np.testing.assert_array_equal(scores, solo_scores)
        assert info.iterations == solo_info.iterations
        assert info.residual_history == solo_info.residual_history


# ---------------------------------------------------------------------------
# FutureRank: uniform mass and author products stacked, still the
# scalar bits.
# ---------------------------------------------------------------------------


#: The first 48 settings of the tuned FR grid: beta = 0 and beta > 0
#: columns side by side, and rho changing from -0.82 to -0.62 after the
#: 40th setting.
FR_SETTINGS = list(grid_for("FR"))[:48]
#: ECM columns share a retained matrix only at one gamma.
ECM_SETTINGS = [
    {"alpha": round(0.05 * step, 2), "gamma": 0.3} for step in range(1, 9)
]
AR_SETTINGS = [
    {"alpha": a, "beta": b, "gamma": round(1.0 - a - b, 10)}
    for a in (0.1, 0.2, 0.3, 0.4)
    for b in (0.2, 0.3, 0.4)
]


@pytest.fixture(scope="module")
def authored():
    return generate_dataset("dblp", size="tiny", seed=7)


def _reauthored(network, authors):
    """``network`` with its author lists replaced."""
    return CitationNetwork(
        network.paper_ids,
        network.publication_times,
        network.citing,
        network.cited,
        paper_authors=authors,
    )


@pytest.fixture
def stack_widths(monkeypatch):
    """The column count of every FusedSolver that runs."""
    widths = []
    real_solve = FusedSolver.solve

    def counting_solve(self):
        widths.append(len(self._columns))
        return real_solve(self)

    monkeypatch.setattr(FusedSolver, "solve", counting_solve)
    return widths


def _assert_scalar_bits(network, specs, solved):
    """Each stacked result equals its method's own ``scores()``."""
    for (label, params), (scores, info) in zip(specs, solved):
        solo = make_method(label, **params)
        want = np.asarray(solo.scores(network))
        np.testing.assert_array_equal(scores, want)
        assert info.iterations == solo.last_convergence.iterations
        assert info.residual == solo.last_convergence.residual
        assert info.residual_history == solo.last_convergence.residual_history


def _solve(network, specs):
    methods = [make_method(label, **params) for label, params in specs]
    return solve_methods(network, methods)


class TestStackedFutureRank:
    @pytest.mark.parametrize(
        "authors",
        ["all", "some papers without", "every list empty"],
    )
    def test_grid_matches_scalar_solves(
        self, authored, stack_widths, authors
    ):
        network = authored
        if authors == "some papers without":
            network = _reauthored(
                authored,
                [
                    () if paper % 3 == 0 else listed
                    for paper, listed in enumerate(authored.paper_authors)
                ],
            )
        elif authors == "every list empty":
            # No authors at all: B @ x is empty, so both normalisations
            # take their zero-total fallback.
            network = _reauthored(authored, [()] * authored.n_papers)
            assert network.author_matrix.shape == (0, network.n_papers)
        betas = {params["beta"] for params in FR_SETTINGS}
        assert 0.0 in betas and len(betas) > 1
        specs = [("FR", params) for params in FR_SETTINGS]
        solved = _solve(network, specs)
        # One solver, batched at stack_width columns; settings 39 and
        # 40 (rho -0.82 and -0.62) share a batch.
        assert stack_widths == [len(FR_SETTINGS)]
        assert 40 % stack_width(network.n_papers) != 0
        _assert_scalar_bits(network, specs, solved)

    @pytest.mark.parametrize(
        "fr, other",
        [
            # ECM has its own operator, so no stacked SpMV operand is
            # built, and the author products copy the stack.
            (FR_SETTINGS[34:46], [("ECM", p) for p in ECM_SETTINGS]),
            # FR as a minority of one operator's stack: the author
            # products run over the AR columns too, which get -0.0.
            (FR_SETTINGS[36:44], [("AR", p) for p in AR_SETTINGS]),
        ],
        ids=["ECM", "AR"],
    )
    def test_beside_other_methods(self, authored, stack_widths, fr, other):
        specs = [("FR", params) for params in fr] + other
        solved = _solve(authored, specs)
        assert stack_widths == [len(specs)]
        _assert_scalar_bits(authored, specs, solved)

    def test_other_columns_keep_signed_zeros(self, authored):
        """The uniform row and the author products reach the columns
        without them as added ``-0.0``, which leaves every bit alone;
        ``+0.0`` would turn their ``-0.0`` entries into ``0.0``, which
        ``np.array_equal`` cannot see, so bytes are compared."""
        fr = [
            make_method("FR", **params).fused_column(authored)
            for params in FR_SETTINGS[:12]
        ]
        negative_zeros = np.full(authored.n_papers, -0.0)
        signed = FusedColumn(
            label="signed",
            matrix=fr[0].matrix,
            alpha=-0.0,
            jump=negative_zeros,
            start=negative_zeros,
            normalize=False,
        )
        solo, solo_info = FusedSolver([signed], authored.n_papers).solve()[0]
        assert np.signbit(solo).all()
        stacked = FusedSolver(fr + [signed], authored.n_papers).solve()
        scores, info = stacked[-1]
        assert scores.tobytes() == solo.tobytes()
        assert info.residual_history == solo_info.residual_history

    def test_product_refuses_mismatched_stacks(self, authored):
        """The sparse kernels trust their sizes, so a stack of the
        wrong shape, or an output that is not C-contiguous, is refused
        before they run."""
        incidence = authored.author_matrix
        authors, papers = incidence.shape
        block = np.ones((papers, 3))
        fused_module._product(incidence, block, np.empty((authors, 3)))
        for wrong_block, out in [
            (np.ones((papers + 1, 3)), np.empty((authors, 3))),
            (block, np.empty((authors, 2))),
            (block, np.empty((3, authors)).T),
        ]:
            with pytest.raises(ValueError, match="cannot multiply"):
                fused_module._product(incidence, wrong_block, out)
        with pytest.raises(ValueError, match="cannot multiply"):
            fused_module._product(
                incidence, block, np.empty((papers, 3)), transpose=True
            )

    def test_uniform_and_incidence_need_a_matrix(self, authored):
        with pytest.raises(ConfigurationError, match="require a matrix"):
            FusedColumn(label="u", step=lambda x: x, uniform=0.0)
        with pytest.raises(ConfigurationError, match="require a matrix"):
            FusedColumn(
                label="b",
                step=lambda x: x,
                incidence=authored.author_matrix,
                beta=0.1,
            )

    @pytest.mark.slow
    def test_tune_scale_grid(self):
        """The tune workload's FR grid: dblp ``medium``, seed 1, ratio
        1.6, all 120 settings, in the tuner's chunks."""
        network = split_by_ratio(
            generate_dataset("dblp", size="medium", seed=1), 1.6
        ).current
        grid = list(grid_for("FR"))
        assert len(grid) == 120
        width = stack_width(network.n_papers)
        for lo in range(0, len(grid), width):
            specs = [("FR", params) for params in grid[lo : lo + width]]
            _assert_scalar_bits(network, specs, _solve(network, specs))


class TestColumnKey:
    """``FusedColumn.key`` names the fixed-point problem of a column."""

    @pytest.fixture
    def column(self, authored):
        # FutureRank's column sets every linear field: a dangling mask,
        # the uniform mass (0.0 here) and the author incidence.
        column = make_method(
            "FR", alpha=0.4, beta=0.1, gamma=0.5, rho=-0.62
        ).fused_column(authored)
        assert column.dangling is not None and column.uniform == 0.0
        return column

    def test_same_inputs_same_key(self, authored, column):
        again = make_method(
            "FR", alpha=0.4, beta=0.1, gamma=0.5, rho=-0.62
        ).fused_column(authored)
        assert again.jump is not column.jump
        assert again.key() == column.key()
        hash(column.key())

    def test_every_field_but_label_enters_the_key(self, column):
        jump = np.array(column.jump)
        jump[0] = np.nextafter(jump[0], 1.0)
        perturbed = {
            "matrix": {"matrix": column.matrix.copy()},
            "alpha": {"alpha": np.nextafter(column.alpha, 1.0)},
            "jump": {"jump": jump},
            "dangling": {"dangling": column.dangling.copy()},
            "uniform": {"uniform": None},
            "incidence": {"incidence": column.incidence.copy()},
            "beta": {"beta": np.nextafter(column.beta, 1.0)},
            "step": {
                "step": lambda x: x,
                "matrix": None,
                "uniform": None,
                "incidence": None,
            },
            "start": {"start": np.array(column.jump)},
            "normalize": {"normalize": not column.normalize},
            "tol": {"tol": np.nextafter(column.tol, 1.0)},
            "max_iterations": {"max_iterations": column.max_iterations + 1},
            "raise_on_failure": {
                "raise_on_failure": not column.raise_on_failure
            },
        }
        # A field added to FusedColumn must be named here, and so keyed.
        assert set(perturbed) == {
            field.name for field in dataclasses.fields(FusedColumn)
        } - {"label"}
        key = column.key()
        for name, changes in perturbed.items():
            assert dataclasses.replace(column, **changes).key() != key, name
        assert dataclasses.replace(column, label="other").key() == key

    def test_signed_zero_scalars_stay_apart(self, column):
        # Adding 0.0 turns -0.0 into 0.0, so the two are different maps.
        assert (
            dataclasses.replace(column, uniform=-0.0).key()
            != dataclasses.replace(column, uniform=0.0).key()
        )

    def test_bare_step_column_has_no_key(self):
        assert FusedColumn(label="step", step=lambda x: x).key() is None
