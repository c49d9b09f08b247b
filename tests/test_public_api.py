"""Tests of the package-level public API and the error hierarchy."""

import inspect
import pickle

import pytest

import repro
from repro import errors
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DataFormatError,
    EvaluationError,
    GatewayError,
    GraphError,
    ReproError,
    StreamError,
)


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_classes_importable_from_root(self):
        from repro import (
            AttRank,
            CitationNetwork,
            NetworkBuilder,
            RankingMethod,
        )

        assert issubclass(AttRank, RankingMethod)
        assert inspect.isclass(CitationNetwork)
        assert inspect.isclass(NetworkBuilder)

    def test_quickstart_docstring_flow(self):
        """The module docstring's example must actually run."""
        from repro import (
            AttRank,
            generate_dataset,
            spearman_rho,
            split_by_ratio,
        )

        network = generate_dataset("hep-th", size="tiny", seed=1)
        split = split_by_ratio(network, test_ratio=1.6)
        method = AttRank(
            alpha=0.2, beta=0.5, gamma=0.3, attention_window=2
        )
        rho = spearman_rho(method.scores(split.current), split.sti)
        assert -1.0 <= rho <= 1.0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            GraphError,
            DataFormatError,
            ConfigurationError,
            EvaluationError,
            StreamError,
            GatewayError,
        ],
    )
    def test_derives_from_base(self, subclass):
        assert issubclass(subclass, ReproError)
        assert issubclass(subclass, Exception)

    def test_convergence_error_carries_diagnostics(self):
        error = ConvergenceError("nope", iterations=7, residual=0.5)
        assert isinstance(error, ReproError)
        assert error.iterations == 7
        assert error.residual == 0.5

    @pytest.mark.parametrize(
        "cls",
        [
            cls
            for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, ReproError)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_pickle_round_trip(self, cls):
        """Errors cross process boundaries (the experiment engine's
        workers), so each must unpickle to an equal error."""
        keywords = {ConvergenceError: {"iterations": 1, "residual": 0.25}}
        error = cls("boom", **keywords.get(cls, {}))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert copy.args == error.args
        assert vars(copy) == vars(error)

    def test_single_catch_at_api_boundary(self, toy):
        """Any library failure is catchable as ReproError (the CLI
        relies on this)."""
        from repro import make_method

        with pytest.raises(ReproError):
            make_method("no-such-method")
        with pytest.raises(ReproError):
            toy.index_of("no-such-paper")
        with pytest.raises(ReproError):
            repro.split_by_ratio(toy, 99.0)
