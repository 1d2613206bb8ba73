"""Unit tests for the composable serve pipeline stages (repro.serve.stages)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MalformedBatchError
from repro.faults.policy import SHED_RESULT, DegradationPolicy
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve.stages import (
    EngineGroup,
    admit_count,
    admit_indices,
    degraded_utilizations,
    plan_admission,
    validate_batch,
    walk_nominal,
)
from repro.virt.schemes import Scheme

K = 3


@pytest.fixture(scope="module")
def tables():
    config = SyntheticTableConfig(n_prefixes=200, seed=5)
    return generate_virtual_tables(K, 0.5, config)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(17)
    addresses = rng.integers(0, 1 << 32, size=1500, dtype=np.uint64).astype(np.uint32)
    vnids = rng.integers(0, K, size=1500, dtype=np.int64)
    return addresses, vnids


class TestValidateBatch:
    def test_accepts_and_normalizes(self, batch):
        addresses, vnids = batch
        out_a, out_v = validate_batch(list(addresses), list(vnids), K)
        assert out_a.dtype == np.uint32
        assert out_v.dtype == np.int64
        assert np.array_equal(out_a, addresses)

    @pytest.mark.parametrize(
        "addresses,vnids,kind",
        [
            (np.zeros((2, 2)), np.zeros(4, dtype=np.int64), "shape"),
            (np.zeros(3, dtype=np.uint32), np.zeros(2, dtype=np.int64), "truncated"),
            (np.array(["a", "b"]), np.zeros(2, dtype=np.int64), "dtype"),
            (np.array([np.nan, 1.0]), np.zeros(2, dtype=np.int64), "non_finite"),
            (np.array([-1, 2], dtype=np.int64), np.zeros(2, dtype=np.int64), "address_range"),
            (np.zeros(2, dtype=np.uint32), np.array([0, K], dtype=np.int64), "vnid_range"),
        ],
    )
    def test_rejection_kinds(self, addresses, vnids, kind):
        with pytest.raises(MalformedBatchError) as err:
            validate_batch(addresses, vnids, K)
        assert err.value.kind == kind

    @pytest.mark.parametrize(
        "dtype,vnid,k,valid",
        [
            (np.int64, -1, K, False),
            (np.int64, 0, K, True),
            (np.int64, K - 1, K, True),
            (np.int64, K, K, False),
            (np.int64, np.iinfo(np.int64).min, K, False),
            (np.int8, -1, K, False),
            (np.int8, np.iinfo(np.int8).min, K, False),
            (np.int8, K - 1, K, True),
            # every int8 is below k: only the sign can put one out of range
            (np.int8, -100, 200, False),
            (np.int8, np.iinfo(np.int8).max, 200, True),
            (np.int32, -1, K, False),
            (np.int32, K, K, False),
            (np.int32, K - 1, K, True),
            (np.uint16, np.iinfo(np.uint16).max, K, False),
            (np.uint16, K, K, False),
            (np.uint16, K - 1, K, True),
        ],
    )
    def test_vnid_range(self, dtype, vnid, k, valid):
        """One unsigned maximum checks both ends of the VNID range."""
        vnids = np.array([0, vnid, 0], dtype=dtype)
        addresses = np.zeros(3, dtype=np.uint32)
        if valid:
            _, out = validate_batch(addresses, vnids, k)
            assert out.dtype == np.int64 and out[1] == vnid
            return
        with pytest.raises(MalformedBatchError, match=f"vnid out of range 0..{k - 1}") as err:
            validate_batch(addresses, vnids, k)
        assert err.value.kind == "vnid_range"

    def test_vnid_range_on_strided_and_big_endian_vnids(self):
        addresses = np.zeros(3, dtype=np.uint32)
        strided = np.array([0, -1, 1, -1, 2, -1], dtype=np.int64)
        validate_batch(addresses, strided[::2], K)
        with pytest.raises(MalformedBatchError):
            validate_batch(addresses, strided[1::2], K)
        validate_batch(addresses, np.array([0, 1, 2], dtype=">i8"), K)
        with pytest.raises(MalformedBatchError):
            validate_batch(addresses, np.array([0, -1, 2], dtype=">i8"), K)


class TestEngineGroup:
    def test_per_vn_engines(self, tables):
        group = EngineGroup(tables, Scheme.NV, 28)
        assert group.n_engines == K
        assert group.merged is None
        assert len(group.tries) == K

    def test_merged_engine(self, tables):
        group = EngineGroup(tables, Scheme.VM, 28)
        assert group.n_engines == 1
        assert group.merged is not None

    def test_rejects_empty_tables(self):
        with pytest.raises(ConfigurationError):
            EngineGroup([], Scheme.NV, 28)

    def test_rejects_insufficient_stages(self, tables):
        with pytest.raises(ConfigurationError):
            EngineGroup(tables, Scheme.NV, 1)


class TestAdmission:
    def test_nominal_admits_everything(self):
        policy = DegradationPolicy()
        admit = plan_admission(np.ones(3), 0.5, policy)
        assert np.allclose(admit, 1.0)

    def test_degraded_engine_sheds_proportionally(self):
        policy = DegradationPolicy()
        scales = np.array([1.0, 0.4, 0.0])
        admit = plan_admission(scales, 0.8, policy)
        assert admit[0] == pytest.approx(1.0)
        assert 0.0 < admit[1] < 1.0
        assert admit[2] == pytest.approx(0.0)

    def test_degraded_utilizations_stay_stable(self):
        policy = DegradationPolicy()
        scales = np.array([1.0, 0.3, 0.05])
        rho = degraded_utilizations(scales, 0.9, policy)
        assert np.all(rho < 1.0)
        assert np.all(rho >= 0.0)

    def test_admit_count_head_of_slice(self):
        vn_shed = np.zeros(4, dtype=np.int64)
        kept = admit_count(100, 0.25, 2, vn_shed)
        assert kept == 25
        assert vn_shed[2] == 75
        assert vn_shed.sum() == 75

    def test_admit_indices_shared_engine_fraction(self):
        vnids = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
        vn_shed = np.zeros(2, dtype=np.int64)
        kept = admit_indices(vnids, 2, 0.5, vn_shed)
        # the merged engine sheds every VN's tail at the same fraction
        assert np.array_equal(np.sort(vnids[kept]), np.array([0, 0, 1, 1]))
        assert vn_shed.tolist() == [2, 2]

    def test_admit_indices_full_admission_is_identity(self):
        vnids = np.array([0, 0, 1], dtype=np.int64)
        vn_shed = np.zeros(2, dtype=np.int64)
        kept = admit_indices(vnids, 2, 1.0, vn_shed)
        assert np.array_equal(kept, np.arange(3))
        assert vn_shed.sum() == 0


class TestWalkNominal:
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_matches_linear_oracle(self, tables, batch, scheme):
        addresses, vnids = batch
        group = EngineGroup(tables, scheme, 28)
        results, traces, _ = walk_nominal(group, addresses, vnids)
        assert len(traces) == group.n_engines
        for vn in range(K):
            mask = vnids == vn
            oracle = tables[vn].lookup_linear_batch(addresses[mask])
            assert np.array_equal(results[mask], oracle)

    def test_trace_packets_partition_the_batch(self, tables, batch):
        addresses, vnids = batch
        group = EngineGroup(tables, Scheme.VS, 28)
        _, traces, _ = walk_nominal(group, addresses, vnids)
        assert sum(t.n_packets for t in traces) == len(addresses)


class TestShedResult:
    def test_sentinel_is_reserved(self):
        # SHED_RESULT must never collide with a real next hop
        assert SHED_RESULT < 0


class TestAutoDepthEngineGroup:
    """``n_stages=None`` regression: real tables carry /32 routes."""

    def _tables(self):
        from repro.iplookup.rib import RoutingTable

        return [
            RoutingTable.from_strings(
                [("0.0.0.0/0", 0), ("203.0.113.7/32", 1), ("10.0.0.0/8", 2)]
            ),
            RoutingTable.from_strings([("10.0.0.0/8", 3)]),
        ]

    def test_none_resolves_to_deepest_table(self):
        group = EngineGroup(self._tables(), Scheme.NV, n_stages=None)
        assert group.n_stages == 32

    def test_explicit_shallow_pipeline_still_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            EngineGroup(self._tables(), Scheme.NV, n_stages=28)

    def test_auto_depth_answers_match_the_oracle(self):
        tables = self._tables()
        group = EngineGroup(tables, Scheme.VM, n_stages=None)
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 1 << 32, size=400, dtype=np.uint64).astype(np.uint32)
        addresses[:4] = [0, 0xFFFFFFFF, 0xCB007107, 0x0A000001]
        vnids = rng.integers(0, 2, size=400, dtype=np.int64)
        results, _, _ = walk_nominal(group, addresses, vnids)
        expected = np.stack([t.lookup_linear_batch(addresses) for t in tables])[
            vnids, np.arange(len(addresses))
        ]
        assert np.array_equal(results, expected)
