"""The derived coefficients c1, c2, c3, c4 against brute-force sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.coefficients import build_coefficients, build_weights
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.constants import build_indicators
from tests.conftest import small_random_instance


def brute_force_coefficients(instance, parameters):
    """Direct implementation of the paper's sums, element by element."""
    indicators = build_indicators(instance)
    weights = build_weights(instance)
    num_attributes = instance.num_attributes
    num_transactions = instance.num_transactions
    num_queries = instance.num_queries
    p = parameters.network_penalty
    c1 = np.zeros((num_attributes, num_transactions))
    c2 = np.zeros(num_attributes)
    c3 = np.zeros((num_attributes, num_transactions))
    c4 = np.zeros(num_attributes)
    for a in range(num_attributes):
        for q in range(num_queries):
            w = weights[a, q]
            alpha = indicators.alpha[a, q]
            beta = indicators.beta[a, q]
            delta = indicators.delta[q]
            for t in range(num_transactions):
                gamma = indicators.gamma[q, t]
                c1[a, t] += w * gamma * (beta * (1 - delta) - p * alpha * delta)
                c3[a, t] += w * gamma * beta * (1 - delta)
            c2[a] += w * delta * (beta + p * alpha)
            c4[a] += w * beta * delta
    return c1, c2, c3, c4


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    penalty=st.sampled_from([0.0, 1.0, 8.0]),
)
def test_vectorised_matches_brute_force(seed, penalty):
    instance = small_random_instance(seed)
    parameters = CostParameters(network_penalty=penalty)
    coefficients = build_coefficients(instance, parameters)
    c1, c2, c3, c4 = brute_force_coefficients(instance, parameters)
    np.testing.assert_allclose(coefficients.c1, c1, atol=1e-9)
    np.testing.assert_allclose(coefficients.c2, c2, atol=1e-9)
    np.testing.assert_allclose(coefficients.c3, c3, atol=1e-9)
    np.testing.assert_allclose(coefficients.c4, c4, atol=1e-9)


def test_weights_formula(tiny_instance):
    weights = build_weights(tiny_instance)
    index = tiny_instance.attribute_index
    q = tiny_instance.query_index
    # W = w_a * f_q * n_{a,q}: Wide.payload width 100, 2 rows, freq 1.
    assert weights[index["Wide.payload"], q["Writer.update"]] == 200.0
    # Untouched table -> zero weight.
    assert weights[index["Narrow.key"], q["Writer.update"]] == 0.0


def test_c1_contains_negative_transfer_rebate(tiny_coefficients):
    """The -p*alpha*delta term makes c1 negative for updated attributes
    at the updating transaction (Section 2.3 needs all three
    linearisation inequalities because of this)."""
    instance = tiny_coefficients.instance
    a = instance.attribute_index["Wide.payload"]
    t = instance.transaction_index["Writer"]
    assert tiny_coefficients.c1[a, t] < 0


def test_c3_c4_nonnegative(tiny_coefficients):
    assert np.all(tiny_coefficients.c3 >= 0)
    assert np.all(tiny_coefficients.c4 >= 0)


def test_no_attributes_accounting_zeroes_write_terms(tiny_instance):
    parameters = CostParameters(write_accounting=WriteAccounting.NO_ATTRIBUTES)
    coefficients = build_coefficients(tiny_instance, parameters)
    assert np.all(coefficients.c4 == 0)
    # c2 keeps only the transfer part.
    expected = (
        parameters.network_penalty * coefficients.transfer_weight.sum(axis=1)
    )
    np.testing.assert_allclose(coefficients.c2, expected)


def test_single_site_cost_is_total_beta_weight(tiny_coefficients):
    indicators = tiny_coefficients.indicators
    expected = float((tiny_coefficients.weights * indicators.beta).sum())
    assert tiny_coefficients.single_site_cost() == pytest.approx(expected)


def test_indicators_reusable_across_parameter_sweeps(tiny_instance):
    indicators = build_indicators(tiny_instance)
    low = build_coefficients(tiny_instance, CostParameters(network_penalty=0.0),
                             indicators=indicators)
    high = build_coefficients(tiny_instance, CostParameters(network_penalty=8.0),
                              indicators=indicators)
    assert low.indicators is high.indicators
    # c3/c4 are penalty-independent; c1/c2 are not (for written attrs).
    np.testing.assert_allclose(low.c3, high.c3)
    np.testing.assert_allclose(low.c4, high.c4)
    assert not np.allclose(low.c2, high.c2)
