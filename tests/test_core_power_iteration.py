"""Unit tests for repro.core.power_iteration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.core.power_iteration import (
    DEFAULT_TOLERANCE,
    grow_start_vector,
    power_iterate,
    uniform_vector,
)


class TestUniformVector:
    def test_sums_to_one(self):
        vector = uniform_vector(7)
        assert vector.sum() == pytest.approx(1.0)
        assert np.allclose(vector, 1 / 7)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            uniform_vector(0)


class TestPowerIterate:
    def test_fixed_point_of_stochastic_matrix(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        result, info = power_iterate(lambda x: matrix @ x, 2, tol=1e-14)
        assert info.converged
        # Analytic stationary distribution of this chain is (2/3, 1/3).
        assert np.allclose(result, [2 / 3, 1 / 3], atol=1e-6)

    def test_start_vector_independence(self):
        matrix = np.array([[0.5, 0.3, 0.2]] * 3).T
        matrix = matrix / matrix.sum(axis=0)
        a, _ = power_iterate(lambda x: matrix @ x, 3, tol=1e-14)
        b, _ = power_iterate(
            lambda x: matrix @ x,
            3,
            tol=1e-14,
            start=np.array([1.0, 0.0, 0.0]),
        )
        assert np.allclose(a, b, atol=1e-10)

    def test_identity_converges_immediately(self):
        result, info = power_iterate(lambda x: x, 4)
        assert info.iterations == 1
        assert info.residual == 0.0

    def test_residual_history_recorded(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        _, info = power_iterate(lambda x: matrix @ x, 2, tol=1e-12)
        assert len(info.residual_history) == info.iterations
        # Residuals decrease geometrically for a primitive chain.
        history = info.residual_history
        assert history[-1] <= history[0]

    def test_budget_exhaustion_raises(self):
        # A period-2 permutation never converges from a non-uniform start.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError) as error:
            power_iterate(
                lambda x: swap @ x,
                2,
                start=np.array([0.9, 0.1]),
                max_iterations=25,
            )
        assert error.value.iterations == 25
        assert error.value.residual > 0

    def test_budget_exhaustion_soft_mode(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        result, info = power_iterate(
            lambda x: swap @ x,
            2,
            start=np.array([0.9, 0.1]),
            max_iterations=10,
            raise_on_failure=False,
        )
        assert not info.converged
        assert result.shape == (2,)

    def test_normalize_false_keeps_scale(self):
        # x <- 0.5 x + c converges to 2c without renormalisation.
        c = np.array([1.0, 3.0])
        result, info = power_iterate(
            lambda x: 0.5 * x + c,
            2,
            normalize=False,
            tol=1e-13,
            max_iterations=200,
        )
        assert np.allclose(result, 2 * c, atol=1e-9)

    def test_start_shape_validated(self):
        with pytest.raises(ConfigurationError, match="start vector"):
            power_iterate(lambda x: x, 3, start=np.ones(5))

    def test_bad_tol_rejected(self):
        with pytest.raises(ConfigurationError):
            power_iterate(lambda x: x, 2, tol=0.0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            power_iterate(lambda x: x, 2, max_iterations=0)

    def test_default_tolerance_matches_paper(self):
        assert DEFAULT_TOLERANCE == 1e-12


class TestGrowStartVector:
    def test_preserves_old_coordinates_verbatim(self):
        previous = np.array([0.5, 0.3, 0.2])
        grown = grow_start_vector(previous, 5)
        assert grown.shape == (5,)
        np.testing.assert_array_equal(grown[:3], previous)
        # New papers get the previous mean entry (scale-consistent).
        assert grown[3] == pytest.approx(1.0 / 3)
        assert grown[4] == pytest.approx(1.0 / 3)

    def test_same_length_keeps_scale(self):
        # Unnormalised fixed points (CiteRank traffic) must survive
        # untouched; power_iterate renormalises stochastic starts.
        previous = np.array([2.0, 6.0])
        grown = grow_start_vector(previous, 2)
        assert np.allclose(grown, [2.0, 6.0])

    def test_is_a_valid_power_iterate_start(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        start = grow_start_vector(np.array([1.0]), 2)
        result, info = power_iterate(
            lambda x: matrix @ x, 2, start=start, tol=1e-14
        )
        assert info.converged
        assert np.allclose(result, [2 / 3, 1 / 3], atol=1e-6)

    def test_rejects_shrinking(self):
        with pytest.raises(ConfigurationError, match="grown network"):
            grow_start_vector(np.ones(4) / 4, 3)

    def test_equal_length_is_accepted_not_rejected(self):
        # Regression: the docstring promises "length <= n".  An equal-
        # length vector must pass the check (it is the no-new-papers
        # delta case), and must come back verbatim.
        previous = np.array([0.25, 0.25, 0.5])
        grown = grow_start_vector(previous, 3)
        np.testing.assert_array_equal(grown, previous)

    def test_too_long_message_states_the_constraint(self):
        # Regression: the old message read "the grown network has only
        # {n} papers", which suggested equality was also an error.  The
        # message must state the actual violated constraint.
        with pytest.raises(
            ConfigurationError, match=r"exceeds.*must be <= 3"
        ):
            grow_start_vector(np.ones(4) / 4, 3)

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            grow_start_vector(np.array([0.5, -0.5]), 3)
        with pytest.raises(ConfigurationError, match="non-negative"):
            grow_start_vector(np.array([0.5, np.nan]), 3)

    def test_rejects_massless(self):
        with pytest.raises(ConfigurationError, match="no mass"):
            grow_start_vector(np.zeros(2), 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="must be a vector"):
            grow_start_vector(np.ones((2, 2)), 5)
        with pytest.raises(ConfigurationError, match="positive"):
            grow_start_vector(np.ones(2), 0)
