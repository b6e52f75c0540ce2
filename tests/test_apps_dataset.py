"""Unit tests for datasets, queries, workloads and block planning."""

import numpy as np
import pytest

from repro.apps import (
    ImageDataset,
    PipelinePlan,
    Region,
    Workload,
    complete_update,
    default_block_candidates,
    mixed_query_workload,
    partial_update,
    plan_block_for_latency,
    plan_block_for_rate,
    steady_rate_workload,
    sustainable_rate,
    zoom_query,
)
from repro.apps.queries import TimedQuery
from repro.errors import WorkloadError
from repro.net import get_model


class TestRegion:
    def test_geometry(self):
        r = Region(10, 20, 50, 100)
        assert (r.width, r.height, r.pixels) == (40, 80, 3200)

    def test_empty_region_rejected(self):
        with pytest.raises(WorkloadError):
            Region(10, 10, 10, 20)


class TestImageDataset:
    def test_with_block_bytes_paper_sizes(self):
        for block in (2048, 16 * 1024, 64 * 1024):
            ds = ImageDataset.with_block_bytes(16 * 1024 * 1024, block)
            assert ds.block_bytes == block
            assert ds.n_blocks == 16 * 1024 * 1024 // block

    def test_grid_must_divide(self):
        with pytest.raises(WorkloadError):
            ImageDataset(100, 100, 3, 3)

    def test_invalid_block_bytes(self):
        with pytest.raises(WorkloadError):
            ImageDataset.with_block_bytes(1 << 20, 3000)

    def test_block_region_roundtrip(self):
        ds = ImageDataset(1024, 1024, 4, 4)
        for bid in range(ds.n_blocks):
            r = ds.block_region(bid)
            assert ds.blocks_for_region(r) == [bid]

    def test_blocks_for_region_partial_overlap(self):
        """Figure 1: a partial query touching parts of 4 blocks fetches
        all 4 whole blocks."""
        ds = ImageDataset(1024, 1024, 4, 4)
        # Straddles the corner where blocks 0, 1, 4, 5 meet.
        r = Region(200, 200, 300, 300)
        assert ds.blocks_for_region(r) == [0, 1, 4, 5]

    def test_wasted_bytes_overfetch(self):
        ds = ImageDataset(1024, 1024, 4, 4)
        r = Region(0, 0, 10, 10)
        assert ds.wasted_bytes(r) == ds.block_bytes - 100

    def test_region_outside_image_rejected(self):
        ds = ImageDataset(64, 64, 2, 2)
        with pytest.raises(WorkloadError):
            ds.blocks_for_region(Region(0, 0, 65, 10))

    def test_declustering_round_robin(self):
        ds = ImageDataset.with_block_bytes(1 << 20, 1 << 16)  # 16 blocks
        owned = [ds.blocks_for_copy(i, 3) for i in range(3)]
        assert sorted(sum(owned, [])) == list(range(16))
        assert ds.copy_for_block(7, 3) == 1

    def test_bad_block_id(self):
        ds = ImageDataset(64, 64, 2, 2)
        with pytest.raises(WorkloadError):
            ds.block_region(99)


class TestQueries:
    @pytest.fixture
    def ds(self):
        return ImageDataset.with_block_bytes(1 << 20, 1 << 16)  # 16 blocks

    def test_complete_update_fetches_everything(self, ds):
        q = complete_update(ds)
        assert q.kind == "complete"
        assert q.n_blocks == 16
        assert q.bytes_fetched(ds) == ds.total_bytes

    def test_partial_update_single_block(self, ds):
        q = partial_update(ds)
        assert q.kind == "partial"
        assert q.n_blocks == 1

    def test_partial_update_wraps(self, ds):
        q = partial_update(ds, n_blocks=3, start=15)
        assert q.blocks == [15, 0, 1]

    def test_partial_update_validation(self, ds):
        with pytest.raises(WorkloadError):
            partial_update(ds, n_blocks=0)

    def test_zoom_query_four_chunks(self, ds):
        q = zoom_query(ds)
        assert q.kind == "zoom"
        assert q.n_blocks == 4

    def test_zoom_degenerates_without_partitioning(self):
        ds = ImageDataset.with_block_bytes(1 << 20, 1 << 20)  # 1 block
        q = zoom_query(ds)
        assert q.n_blocks == 1
        assert q.bytes_fetched(ds) == ds.total_bytes

    def test_query_ids_unique(self, ds):
        assert complete_update(ds).query_id != complete_update(ds).query_id


class TestWorkloads:
    @pytest.fixture
    def ds(self):
        return ImageDataset.with_block_bytes(1 << 20, 1 << 16)

    def test_steady_rate_structure(self, ds):
        wl = steady_rate_workload(ds, rate=4.0, duration=1.0, partial_every=2)
        completes = wl.of_kind("complete")
        partials = wl.of_kind("partial")
        assert len(completes) == 4
        assert len(partials) == 2
        assert all(tq.after_previous for tq in partials)
        # Completes arrive at the frame period.
        assert [tq.at for tq in completes] == [0.0, 0.25, 0.5, 0.75]

    def test_steady_rate_validation(self, ds):
        with pytest.raises(WorkloadError):
            steady_rate_workload(ds, rate=0, duration=1)

    def test_workload_must_be_time_ordered(self, ds):
        with pytest.raises(WorkloadError):
            Workload([
                TimedQuery(1.0, complete_update(ds)),
                TimedQuery(0.5, complete_update(ds)),
            ])

    def test_mixed_workload_fraction(self, ds):
        rng = np.random.default_rng(7)
        wl = mixed_query_workload(ds, 400, fraction_complete=0.3, rng=rng)
        frac = len(wl.of_kind("complete")) / len(wl)
        assert 0.22 < frac < 0.38

    def test_mixed_workload_extremes(self, ds):
        rng = np.random.default_rng(7)
        assert len(mixed_query_workload(ds, 10, 1.0, rng).of_kind("complete")) == 10
        assert len(mixed_query_workload(ds, 10, 0.0, rng).of_kind("zoom")) == 10

    def test_mixed_workload_validation(self, ds):
        with pytest.raises(WorkloadError):
            mixed_query_workload(ds, 10, 1.5, np.random.default_rng(0))


class TestPlanning:
    def test_candidates_are_powers_of_two(self):
        cands = default_block_candidates()
        assert cands[0] == 2048 and cands[-1] == 1 << 20
        assert all(b & (b - 1) == 0 for b in cands)

    def test_sustainable_rate_monotone_in_block_for_tcp(self):
        """Bigger blocks amortize TCP's per-chunk overheads."""
        plan = PipelinePlan(model=get_model("tcp"))
        rates = [sustainable_rate(plan, b) for b in (2048, 16384, 131072)]
        assert rates == sorted(rates)

    def test_tcp_cannot_sustain_four_updates(self):
        """Paper: 'TCP cannot meet an update constraint greater than 3.25'."""
        plan = PipelinePlan(model=get_model("tcp"))
        assert plan_block_for_rate(plan, 4.0) is None
        assert plan_block_for_rate(plan, 3.25) is not None

    def test_socketvia_sustains_four_updates_without_computation(self):
        plan = PipelinePlan(model=get_model("socketvia"))
        block = plan_block_for_rate(plan, 4.0)
        assert block is not None and block <= 4096

    def test_computation_caps_everyone_near_3_3(self):
        """Paper: with 18 ns/byte 'even SocketVIA (with DR) is not able
        to achieve an update rate greater than 3.25'."""
        for proto in ("tcp", "socketvia"):
            plan = PipelinePlan(model=get_model(proto), compute_ns_per_byte=18.0)
            assert plan_block_for_rate(plan, 3.5) is None
        sv = PipelinePlan(model=get_model("socketvia"), compute_ns_per_byte=18.0)
        assert plan_block_for_rate(sv, 3.25) is not None

    def test_dr_blocks_smaller_than_tcp_blocks(self):
        """The repartitioning effect: same rate, much smaller blocks."""
        rate = 3.0
        tcp = plan_block_for_rate(PipelinePlan(model=get_model("tcp")), rate)
        sv = plan_block_for_rate(PipelinePlan(model=get_model("socketvia")), rate)
        assert sv < tcp

    def test_latency_planning_tcp_dropout_at_100us(self):
        """Paper Figure 8(a): TCP drops out at the 100 us guarantee."""
        tcp = PipelinePlan(model=get_model("tcp"))
        sv = PipelinePlan(model=get_model("socketvia"))
        assert plan_block_for_latency(tcp, 100e-6) is None
        assert plan_block_for_latency(sv, 100e-6) is not None

    def test_latency_planning_larger_bound_larger_block(self):
        plan = PipelinePlan(model=get_model("tcp"))
        b1 = plan_block_for_latency(plan, 500e-6)
        b2 = plan_block_for_latency(plan, 1000e-6)
        assert b1 is not None and b2 is not None and b2 >= b1

    def test_invalid_block(self):
        plan = PipelinePlan(model=get_model("tcp"))
        with pytest.raises(ValueError):
            sustainable_rate(plan, 0)
