"""Indicator-array construction (Section 2.1) and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.constants import IndicatorArrays, build_indicators, row_counts
from repro.instances.library import named_instance
from tests.conftest import small_random_instance


class TestTinyIndicators:
    @pytest.fixture(autouse=True)
    def _build(self, tiny_instance):
        self.instance = tiny_instance
        self.arrays = build_indicators(tiny_instance)

    def test_shapes(self):
        assert self.arrays.alpha.shape == (5, 4)
        assert self.arrays.beta.shape == (5, 4)
        assert self.arrays.gamma.shape == (4, 2)
        assert self.arrays.delta.shape == (4,)
        assert self.arrays.phi.shape == (5, 2)

    def test_delta_marks_writes(self):
        # queries: getNarrow, getWide, find, update
        assert list(self.arrays.delta) == [0, 0, 0, 1]

    def test_alpha_only_accessed_attributes(self):
        index = self.instance.attribute_index
        q = self.instance.query_index
        assert self.arrays.alpha[index["Narrow.key"], q["Reader.getNarrow"]] == 1
        assert self.arrays.alpha[index["Wide.blob"], q["Reader.getWide"]] == 0

    def test_beta_covers_whole_tables(self):
        index = self.instance.attribute_index
        q = self.instance.query_index
        # getWide touches table Wide, so blob is in beta despite not alpha.
        assert self.arrays.beta[index["Wide.blob"], q["Reader.getWide"]] == 1
        assert self.arrays.beta[index["Narrow.key"], q["Reader.getWide"]] == 0

    def test_phi_only_reads(self):
        index = self.instance.attribute_index
        t = self.instance.transaction_index
        # Writer only WRITES Wide.payload: phi must be 0 there.
        assert self.arrays.phi[index["Wide.payload"], t["Writer"]] == 0
        assert self.arrays.phi[index["Narrow.key"], t["Writer"]] == 1

    def test_rows_follow_query_statistics(self):
        index = self.instance.attribute_index
        q = self.instance.query_index
        rows = row_counts(self.instance)
        assert rows[index["Wide.payload"], q["Writer.update"]] == 2.0
        assert rows[index["Narrow.key"], q["Writer.find"]] == 1.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_indicator_invariants(seed):
    """Structural invariants that must hold for every instance."""
    instance = small_random_instance(seed)
    arrays = build_indicators(instance)
    # alpha implies beta (accessing an attribute means touching its table).
    assert np.all(arrays.alpha <= arrays.beta)
    # Every query belongs to exactly one transaction.
    assert np.all(arrays.gamma.sum(axis=1) == 1)
    # phi is exactly the read-projection of alpha through gamma.
    read_alpha = arrays.alpha * (1 - arrays.delta)[None, :]
    expected_phi = (read_alpha @ arrays.gamma) > 0
    assert np.array_equal(arrays.phi > 0, expected_phi)
    # Row counts are positive exactly where beta is set.
    assert np.all((row_counts(instance) > 0) == (arrays.beta > 0))


def _float_indicators(instance) -> tuple[IndicatorArrays, np.ndarray]:
    """The indicators as float64 0/1 arrays and the row counts, built
    independently of :func:`build_indicators` and :func:`row_counts`."""
    num_attributes = instance.num_attributes
    num_queries = instance.num_queries
    alpha = np.zeros((num_attributes, num_queries))
    beta = np.zeros((num_attributes, num_queries))
    gamma = np.zeros((num_queries, instance.num_transactions))
    delta = np.zeros(num_queries)
    phi = np.zeros((num_attributes, instance.num_transactions))
    rows = np.zeros((num_attributes, num_queries))
    for q_index, query in enumerate(instance.queries):
        t_index = instance.query_transaction[q_index]
        gamma[q_index, t_index] = 1.0
        delta[q_index] = float(query.is_write)
        for qualified in query.attributes:
            a_index = instance.attribute_index[qualified]
            alpha[a_index, q_index] = 1.0
            if not query.is_write:
                phi[a_index, t_index] = 1.0
        for table in query.tables:
            for a_index in instance.table_attributes[table]:
                beta[a_index, q_index] = 1.0
                rows[a_index, q_index] = query.rows_for(table)
    return IndicatorArrays(alpha, beta, gamma, delta, phi), rows


@pytest.mark.parametrize("name", ["tpcc", "rndAt64x100", "rndDupAt8x400"])
def test_bool_indicators_give_float64_coefficients(name):
    """The indicators are stored as ``bool``; the coefficients built
    from them equal, bit for bit, those of a float64 0/1 build."""
    instance = named_instance(name, seed=20)
    stored = build_indicators(instance)
    reference, rows = _float_indicators(instance)
    for field in ("alpha", "beta", "gamma", "delta", "phi"):
        assert getattr(stored, field).dtype == np.bool_, field
        assert np.array_equal(getattr(stored, field), getattr(reference, field))
    assert row_counts(instance).dtype == np.float64
    assert np.array_equal(row_counts(instance), rows)
    parameters = CostParameters()
    built = build_coefficients(instance, parameters)
    expected = build_coefficients(instance, parameters, indicators=reference)
    for field in ("c1", "c2", "c3", "c4"):
        actual = getattr(built, field)
        assert actual.dtype == np.float64, field
        assert np.array_equal(actual, getattr(expected, field)), field
    assert built.nbytes < expected.nbytes
