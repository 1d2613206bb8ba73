"""The correctness gate catches a wrong answer and ignores shed lookups."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from repro.faults.policy import SHED_RESULT

ROOT = Path(__file__).resolve().parents[2]
SMALL_BULK = replace(workloads.BULK_UNIFORM, batch_size=1500, pool_size=2, n_prefixes=300)
SMALL_SHARDED = replace(workloads.SHARDED_PIPE, batch_size=1500, pool_size=2, n_prefixes=300)


@pytest.fixture(scope="module")
def bulk():
    inputs = workloads.make_inputs(SMALL_BULK, 7, ROOT)
    tier = workloads.build_sync(SMALL_BULK, inputs.tables, instrumented=False)
    answers, _ = workloads.first_pass(tier, inputs)
    return inputs, answers


def test_correct_answers_pass_the_oracle(bulk):
    inputs, answers = bulk
    assert workloads.gate(inputs, answers) == [0, 0]


def test_a_corrupted_copy_is_caught(bulk):
    inputs, answers = bulk
    corrupted = [a.copy() for a in answers]
    corrupted[1][17] = corrupted[1][17] + 1
    assert workloads.gate(inputs, corrupted) == [0, 1]
    # the tier's own arrays are untouched
    assert workloads.gate(inputs, answers) == [0, 0]


def test_shed_lookups_are_not_mismatches(bulk):
    inputs, answers = bulk
    shed = [a.copy() for a in answers]
    shed[0][:5] = SHED_RESULT
    assert workloads.gate(inputs, shed) == [0, 0]
    assert workloads.count_mismatches(shed[0], answers[0]) == 0


def test_sharded_answers_agree_with_oracle_and_sync_tier():
    inputs = workloads.make_inputs(SMALL_SHARDED, 3, ROOT)
    tier = workloads.build_sharded(SMALL_SHARDED, inputs.tables)
    try:
        answers, _ = workloads.first_pass(tier, inputs)
        assert tier.worker_pids(), "the process transport runs worker processes"
    finally:
        tier.close()
    sync = workloads.build_sync(SMALL_SHARDED, inputs.tables, instrumented=False)
    assert workloads.gate(inputs, answers, sync.service.lookup_batch) == [0, 0]
    wrong = [a.copy() for a in answers]
    wrong[0][0] += 1
    assert workloads.gate(inputs, wrong, sync.service.lookup_batch) == [1, 0]


def test_batches_are_a_function_of_the_seed():
    first = workloads.make_inputs(SMALL_BULK, 5, ROOT)
    again = workloads.make_inputs(SMALL_BULK, 5, ROOT)
    other = workloads.make_inputs(SMALL_BULK, 6, ROOT)
    for (a1, v1), (a2, v2) in zip(first.batches, again.batches):
        assert np.array_equal(a1, a2) and np.array_equal(v1, v2)
    assert not np.array_equal(first.batches[0][0], other.batches[0][0])
