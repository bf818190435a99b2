import numpy as np
import pytest

from uavmec.lyapunov import dpp_objective, init_queues, update_queues


def test_init_queues_start_empty_with_broadcast_budgets():
    q = init_queues(3, 100.0, 150.0)
    np.testing.assert_array_equal(q.q_c, np.zeros(3))
    np.testing.assert_array_equal(q.q_p, np.zeros(3))
    assert (q.budget_c, q.budget_p) == (100.0, 150.0)


def test_update_is_the_clipped_recurrence():
    q = init_queues(2, 10.0, 5.0)
    q = update_queues(q, [14.0, 8.0], [5.0, 20.0])
    np.testing.assert_allclose(q.q_c, [4.0, 0.0])
    np.testing.assert_allclose(q.q_p, [0.0, 15.0])
    q = update_queues(q, [0.0, 0.0], [0.0, 0.0])
    np.testing.assert_allclose(q.q_c, [0.0, 0.0])  # drains by the budget
    np.testing.assert_allclose(q.q_p, [0.0, 10.0])


def test_update_rejects_negative_energy():
    q = init_queues(1, 10.0, 5.0)
    with pytest.raises(ValueError):
        update_queues(q, [-1.0], [0.0])


def test_multi_slot_accumulation_matches_manual_recurrence():
    rng = np.random.default_rng(0)
    q = init_queues(2, 6.0, 4.0)
    qc_manual = np.zeros(2)
    for _ in range(50):
        e_c = rng.uniform(0.0, 12.0, size=2)
        q = update_queues(q, e_c, [0.0, 0.0])
        qc_manual = np.maximum(qc_manual + e_c - 6.0, 0.0)
    np.testing.assert_allclose(q.q_c, qc_manual)


def test_queue_stability_implies_budget_compliance():
    """sum(E) <= T*budget + Q(T): the telescoped queue inequality."""
    rng = np.random.default_rng(1)
    q = init_queues(1, 5.0, 5.0)
    total = 0.0
    t_slots = 200
    for _ in range(t_slots):
        e = rng.uniform(0.0, 11.0)
        total += e
        q = update_queues(q, [e], [0.0])
    assert total <= t_slots * 5.0 + q.q_c[0] + 1e-9


def test_dpp_objective_value_and_guards():
    val = dpp_objective([2.0, 0.0], [1.0, 3.0], [4.0, 5.0], [6.0, 7.0],
                        total_cost=10.0, v=100.0)
    assert val == pytest.approx(2 * 4 + 1 * 6 + 3 * 7 + 100.0 * 10.0)
    with pytest.raises(ValueError):
        dpp_objective([0.0], [0.0], [1.0], [1.0], 1.0, 0.0)
