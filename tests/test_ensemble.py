import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from lsmkit import ensemble as ensemble_module
from lsmkit import (
    ConfigError,
    NumericsError,
    ConnectionLaw,
    GridDims,
    InputSpec,
    NeuronParams,
    PopulationState,
    ReceptiveField,
    build_input,
    build_reservoir,
    build_tepre,
    drive_through_map,
    equal_split_schedule,
    lif_step,
    run_mulre,
    run_tepre,
    simulate_population,
)

PARAMS = NeuronParams()


def make_member(dims, d, topo_seed, input_seed, n_inputs=16, density=0.25, weight=12.0):
    topo = build_reservoir(dims, ConnectionLaw(lam=2.0, d=d), PARAMS, topo_seed)
    spec = InputSpec(n_inputs=n_inputs, input_weight=weight, density=density)
    imap = build_input(spec, dims, input_seed)
    return topo, imap


def poisson_rates(steps, n_inputs, seed, lam=1.0):
    rng = np.random.default_rng(seed)
    return rng.poisson(lam, size=(steps, n_inputs)).astype(float)


class TestSchedule:
    def test_equal_split_300_3(self):
        sched = equal_split_schedule(300, 3)
        assert sched.intervals == ((0, 100), (100, 200), (200, 300))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda parts: st.tuples(st.integers(parts, 5_000), st.just(parts))
        )
    )
    def test_lengths_differ_by_at_most_one(self, steps_and_parts):
        steps, parts = steps_and_parts
        sched = equal_split_schedule(steps, parts)
        assert len(sched.intervals) == parts
        # consecutive, non-empty intervals that tile [0, steps)
        assert sched.intervals[0][0] == 0 and sched.intervals[-1][1] == steps
        for (_, end), (start, _) in zip(sched.intervals, sched.intervals[1:]):
            assert end == start
        lengths = [e - s for s, e in sched.intervals]
        assert min(lengths) >= 1
        assert max(lengths) - min(lengths) <= 1

    @pytest.mark.parametrize(
        "steps, parts, named",
        [(2, 3, "cannot split"), (5, 0, "partitions must be >= 1, not 0")],
        ids=["2-3", "5-0"],
    )
    def test_partitions_outside_one_to_steps_rejected(self, steps, parts, named):
        with pytest.raises(ConfigError, match=named):
            equal_split_schedule(steps, parts)


class TestMuLRE:
    def test_single_member_equals_plain_run(self):
        dims = GridDims(4, 4, 4)
        topo, imap = make_member(dims, d=0.0, topo_seed=1, input_seed=2)
        rates = poisson_rates(60, 16, seed=3)
        ensemble = run_mulre(rates, [(topo, imap)], PARAMS)
        plain = simulate_population(
            topo.weight_matrix(), drive_through_map(rates, imap), PARAMS
        )
        assert np.array_equal(ensemble[0].counts, plain.counts)

    def test_member_independence(self):
        dims = GridDims(4, 4, 4)
        m0 = make_member(dims, 0.0, 1, 2)
        m1 = make_member(dims, 5.0, 10, 11)
        rates = poisson_rates(50, 16, seed=4)
        both = run_mulre(rates, [m0, m1], PARAMS)
        # silence member 1 by zeroing its input map weights
        silent_map = type(m1[1])(
            n_inputs=m1[1].n_inputs,
            n_reservoir=m1[1].n_reservoir,
            input_idx=m1[1].input_idx,
            reservoir_idx=m1[1].reservoir_idx,
            weight=np.zeros_like(m1[1].weight),
            seed=m1[1].seed,
        )
        mixed = run_mulre(rates, [m0, (m1[0], silent_map)], PARAMS)
        assert np.array_equal(mixed[0].counts, both[0].counts)
        assert mixed[1].counts.sum() == 0

    def test_member_order_permutes_outputs(self):
        dims = GridDims(4, 4, 4)
        m0 = make_member(dims, 0.0, 1, 2)
        m1 = make_member(dims, 4.0, 5, 6)
        rates = poisson_rates(40, 16, seed=5)
        fwd = run_mulre(rates, [m0, m1], PARAMS)
        rev = run_mulre(rates, [m1, m0], PARAMS)
        assert np.array_equal(fwd[0].counts, rev[1].counts)
        assert np.array_equal(fwd[1].counts, rev[0].counts)

    def test_distance_offsets_differ_in_edge_lengths(self):
        dims = GridDims(6, 6, 6)
        t0 = build_reservoir(dims, ConnectionLaw(lam=2, d=0), PARAMS, 7)
        t5 = build_reservoir(dims, ConnectionLaw(lam=2, d=5), PARAMS, 7)
        coords = dims.coordinates().astype(float)

        def mode_distance(topo):
            dist = np.linalg.norm(coords[topo.src] - coords[topo.dst], axis=1)
            hist, edges = np.histogram(dist, bins=np.arange(0.5, 10.5, 1.0))
            return edges[np.argmax(hist)] + 0.5

        assert mode_distance(t0) <= 2.0
        assert abs(mode_distance(t5) - 5.0) <= 1.0


class TestBuildTepre:
    def members(self, n, dims=None, seed0=20):
        dims = dims or GridDims(4, 4, 4)
        return [
            build_reservoir(dims, ConnectionLaw(), PARAMS, seed0 + i)
            for i in range(n)
        ]

    def test_single_partition_no_links(self):
        assert build_tepre(self.members(1), 0.01, -1.0, seed=0) == []

    def test_zero_density_empty_links(self):
        links = build_tepre(self.members(3), 0.0, -1.0, seed=0)
        assert len(links) == 2
        for src, dst, weight in links:
            assert src.size == dst.size == weight.size == 0
            assert (src.dtype, dst.dtype, weight.dtype) == (np.int64, np.int64, np.float64)

    def test_nonnegative_weight_rejected(self):
        for weight in (0.5, 0.0, float("nan")):
            with pytest.raises(ConfigError, match="inter_weight"):
                build_tepre(self.members(2), 0.01, weight, seed=0)

    def test_sources_are_inhibitory_and_weights_negative(self):
        members = self.members(3)
        links = build_tepre(members, 0.05, -2.0, seed=1)
        for r, (src, dst, weight) in enumerate(links):
            assert np.all(weight == -2.0)
            inhibitory = set(members[r].inhibitory_indices().tolist())
            assert set(src.tolist()) <= inhibitory

    def test_edge_count_matches_density(self):
        # 600 inhibitory sources x 1200 targets at 0.01 -> about 7200 links
        dims = GridDims(10, 10, 12)
        members = [
            build_reservoir(dims, ConnectionLaw(), PARAMS, 30 + i) for i in range(3)
        ]
        links = build_tepre(members, 0.01, -1.0, seed=2)
        n_candidates = 600 * 1200
        expected = 0.01 * n_candidates
        sigma = math.sqrt(n_candidates * 0.01 * 0.99)
        for src, dst, _ in links:
            assert abs(src.size - expected) <= 3 * sigma

    def test_determinism(self):
        members = self.members(3)
        a = build_tepre(members, 0.02, -1.0, seed=3)
        b = build_tepre(members, 0.02, -1.0, seed=3)
        for (sa, da, wa), (sb, db, wb) in zip(a, b):
            assert np.array_equal(sa, sb) and np.array_equal(da, db)


class TestRunTepre:
    def build_ensemble(self, n_parts, dims=None, inter_density=0.02, steps=60):
        dims = dims or GridDims(4, 4, 4)
        members = [
            make_member(dims, 0.0, topo_seed=40 + i, input_seed=50 + i)
            for i in range(n_parts)
        ]
        links = build_tepre(
            [t for t, _ in members], inter_density, -1.0, seed=60
        )
        schedule = equal_split_schedule(steps, n_parts)
        rates = poisson_rates(steps, 16, seed=70, lam=1.5)
        return members, links, schedule, rates

    def test_single_partition_equals_plain_run(self):
        members, links, schedule, rates = self.build_ensemble(1)
        records = run_tepre(rates, members, links, schedule, PARAMS)
        topo, imap = members[0]
        plain = simulate_population(
            topo.weight_matrix(), drive_through_map(rates, imap), PARAMS
        )
        assert np.array_equal(records[0].counts, plain.counts)

    def test_gating_drive_zero_outside_interval(self):
        members, links, schedule, rates = self.build_ensemble(3, steps=60)
        records = run_tepre(
            rates, members, links, schedule, PARAMS, record_drive=True
        )
        for r, record in enumerate(records):
            start, end = schedule.intervals[r]
            outside = np.ones(60, dtype=bool)
            outside[start:end] = False
            assert np.all(record.drive_l1[outside] == 0.0)
            assert record.drive_l1[start:end].sum() > 0

    def test_zero_inter_density_matches_independent_gated_runs(self):
        members, _, schedule, rates = self.build_ensemble(3, inter_density=0.0)
        links = build_tepre([t for t, _ in members], 0.0, -1.0, seed=61)
        records = run_tepre(
            rates, members, links, schedule, PARAMS, record_raster=True
        )
        for r, (topo, imap) in enumerate(members):
            start, end = schedule.intervals[r]
            gated = np.zeros((schedule.steps, topo.size))
            full = drive_through_map(rates, imap)
            gated[start:end] = full[start:end]
            solo = simulate_population(
                topo.weight_matrix(), gated, PARAMS, record_raster=True
            )
            assert np.array_equal(records[r].raster, solo.raster)
            assert np.array_equal(records[r].counts, solo.counts)

    def test_inter_links_change_downstream_partition_only(self):
        members, links, schedule, rates = self.build_ensemble(2, inter_density=0.2)
        no_links = build_tepre([t for t, _ in members], 0.0, -1.0, seed=62)
        with_links = run_tepre(rates, members, links, schedule, PARAMS)
        without = run_tepre(rates, members, no_links, schedule, PARAMS)
        assert np.array_equal(with_links[0].counts, without[0].counts)
        # partition 1 receives inhibition from partition 0's active slab
        assert not np.array_equal(with_links[1].counts, without[1].counts)

    def test_crossing_spikes_delayed_one_step(self):
        # a source spike at step t must reach the next partition's trace at
        # t+1; a strong hand-made excitatory link (bypassing the inhibitory
        # builder on purpose) makes the timing observable as a spike
        dims = GridDims(1, 1, 2)
        topo_a = build_reservoir(dims, ConnectionLaw(), PARAMS, 1)
        topo_b = build_reservoir(dims, ConnectionLaw(), PARAMS, 2)
        spec = InputSpec(n_inputs=1, input_weight=25.0 * PARAMS.tau_u, density=1.0)
        imap_a = build_input(spec, dims, 3)
        imap_b = build_input(spec, dims, 4)
        inh = int(topo_a.inhibitory_indices()[0])
        kick = (
            np.array([inh]),
            np.array([0]),
            np.array([25.0 * PARAMS.theta * PARAMS.tau_u]),
        )
        schedule = equal_split_schedule(8, 2)
        rates = np.zeros((8, 1))
        rates[0, 0] = 1.0  # drives partition A, whose slab is [0, 4), at step 0
        records = run_tepre(
            rates, [(topo_a, imap_a), (topo_b, imap_b)], [kick], schedule, PARAMS,
            record_raster=True, record_drive=True,
        )
        assert not records[1].drive_l1.any()  # B spikes only through the link
        a_spikes = np.nonzero(records[0].raster[:, inh])[0]
        assert a_spikes.size > 0
        b_spikes = np.nonzero(records[1].raster[:, 0])[0]
        assert b_spikes.size > 0
        assert int(b_spikes[0]) == int(a_spikes[0]) + 1

        # with the proper inhibitory link the downstream partition stays
        # silent instead (no excitatory path exists)
        inhibitory = (kick[0], kick[1], np.array([-5.0]))
        silent = run_tepre(
            rates, [(topo_a, imap_a), (topo_b, imap_b)], [inhibitory], schedule,
            PARAMS,
        )
        assert silent[1].counts.sum() == 0

    def test_slab_counts_subset_of_full_counts(self):
        members, links, schedule, rates = self.build_ensemble(3)
        records = run_tepre(rates, members, links, schedule, PARAMS)
        for record in records:
            assert np.all(record.slab_counts <= record.counts)

    @pytest.mark.parametrize("slab", [(0, 61), (30, 20), (-1, 10)])
    def test_slab_outside_the_run_rejected(self, slab):
        # a slab count of steps never run would silently read as a count
        topo, imap = make_member(GridDims(4, 4, 4), d=0.0, topo_seed=1, input_seed=2)
        drive = drive_through_map(poisson_rates(60, 16, seed=3), imap)
        with pytest.raises(ConfigError, match="does not lie in"):
            simulate_population(topo.weight_matrix(), drive, PARAMS, slab=slab)

    def test_schedule_partition_mismatch_rejected(self):
        members, links, _, rates = self.build_ensemble(3)
        bad = equal_split_schedule(60, 2)
        with pytest.raises(ConfigError):
            run_tepre(rates, members, links, bad, PARAMS)

    @pytest.mark.parametrize("steps", [59, 61])
    def test_rates_not_of_schedule_length_rejected(self, steps):
        # a longer array's tail would otherwise be dropped without a word
        members, links, schedule, _ = self.build_ensemble(3)
        rates = poisson_rates(steps, 16, seed=70)
        with pytest.raises(ConfigError, match="60-step schedule"):
            run_tepre(rates, members, links, schedule, PARAMS)


class TestStackedExactness:
    """Stacking members into one population must reproduce them stepped one
    by one, bit for bit, also when no recurrent or drive sum is an integer."""

    PARAMS = NeuronParams(w_lsm=0.7)

    def members(self, n):
        dims = GridDims(4, 4, 3)
        spec = InputSpec(n_inputs=16, input_weight=7.3, density=0.3)
        return [
            (
                build_reservoir(dims, ConnectionLaw(lam=2.0, d=1.5 * i), self.PARAMS, 80 + i),
                build_input(spec, dims, 90 + i),
            )
            for i in range(n)
        ]

    def rates(self, steps):
        return np.random.default_rng(5).gamma(0.8, 1.3, size=(steps, 16))

    @pytest.mark.parametrize("n_parts", [3, 4])
    def test_run_tepre_matches_lockstep_reference(self, n_parts):
        params, steps = self.PARAMS, 96
        members = self.members(n_parts)
        links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
        schedule = equal_split_schedule(steps, n_parts)
        rates = self.rates(steps)
        records = run_tepre(
            rates, members, links, schedule, params,
            record_raster=True, record_drive=True,
        )

        # reference: every partition advanced by its own lif_step per step,
        # links applied to the previous step's spikes of partition r-1
        drives = []
        for r, (topo, imap) in enumerate(members):
            start, end = schedule.intervals[r]
            gated = np.zeros((steps, topo.size))
            gated[start:end] = drive_through_map(rates, imap)[start:end]
            drives.append(gated)
        link_mats = [
            sparse.csr_matrix(
                (w, (d, s)), shape=(members[r + 1][0].size, members[r][0].size)
            )
            for r, (s, d, w) in enumerate(links)
        ]
        states = [PopulationState.zeros(t.size) for t, _ in members]
        counts = [np.zeros(t.size, dtype=np.int64) for t, _ in members]
        slab_counts = [np.zeros(t.size, dtype=np.int64) for t, _ in members]
        rasters = [np.zeros((steps, t.size), dtype=np.uint8) for t, _ in members]
        drive_l1 = [np.zeros(steps) for _ in members]
        crossings = 0
        for t in range(steps):
            prev = [s.spikes for s in states]
            for r, (topo, _) in enumerate(members):
                injected = drives[r][t]
                if r > 0 and prev[r - 1].any():
                    injected = injected + link_mats[r - 1].dot(prev[r - 1].astype(float))
                    crossings += 1
                states[r] = lif_step(states[r], injected, topo.weight_matrix(), params)
                counts[r] += states[r].spikes
                start, end = schedule.intervals[r]
                if start <= t < end:
                    slab_counts[r] += states[r].spikes
                rasters[r][t] = states[r].spikes
                drive_l1[r][t] = np.abs(drives[r][t]).sum()

        assert crossings > 0 and all(link[0].size for link in links)
        for r, record in enumerate(records):
            assert counts[r].sum() > 0
            assert np.array_equal(record.counts, counts[r])
            assert np.array_equal(record.slab_counts, slab_counts[r])
            assert np.array_equal(record.raster, rasters[r])
            assert np.array_equal(record.drive_l1, drive_l1[r])

    def test_run_mulre_matches_member_runs(self):
        params, rates = self.PARAMS, self.rates(80)
        members = self.members(3)
        records = run_mulre(rates, members, params, record_raster=True)
        for record, (topo, imap) in zip(records, members):
            solo = simulate_population(
                topo.weight_matrix(),
                drive_through_map(rates, imap),
                params,
                record_raster=True,
            )
            assert solo.counts.sum() > 0
            assert np.array_equal(record.counts, solo.counts)
            assert np.array_equal(record.raster, solo.raster)
            assert record.slab_counts is None

    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_stacked_samples_match_single_sample_calls(self, variant):
        params, steps, batch = self.PARAMS, 90, 4
        members = self.members(3)
        stack = np.random.default_rng(11).gamma(0.8, 1.3, size=(steps, batch, 16))
        stack[:, 2] = 0.0  # a silent sample steps next to driven ones
        if variant == "tepre":
            links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
            schedule = equal_split_schedule(steps, len(members))

            def run(rates):
                return run_tepre(
                    rates, members, links, schedule, params,
                    record_raster=True, record_drive=True,
                )
        else:

            def run(rates):
                return run_mulre(rates, members, params, record_raster=True)

        batched = run([stack[:, b] for b in range(batch)])
        assert len(batched) == batch
        for b in range(batch):
            single = run(np.ascontiguousarray(stack[:, b]))
            assert len(batched[b]) == len(single) == len(members)
            for got, want in zip(batched[b], single):
                assert (want.counts.sum() == 0) == (b == 2)
                assert np.array_equal(got.counts, want.counts)
                assert np.array_equal(got.raster, want.raster)
                if variant == "tepre":
                    assert np.array_equal(got.slab_counts, want.slab_counts)
                    assert got.drive_l1.tobytes() == want.drive_l1.tobytes()
                else:
                    assert got.slab_counts is None and want.slab_counts is None

    def test_raster_is_held_only_when_recorded(self):
        """Spikes are counted as the loop runs: without ``record_raster`` a
        batch holds no (T, N, B) raster, so its run peaks about one raster
        lower under tracemalloc."""
        params, steps, batch = self.PARAMS, 600, 4
        members = self.members(3)
        links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
        schedule = equal_split_schedule(steps, len(members))
        stack = np.random.default_rng(12).gamma(0.8, 1.3, size=(steps, batch, 16))
        peaks = {}
        for record_raster in (True, False):
            tracemalloc.start()
            try:
                run_tepre(
                    [stack[:, b] for b in range(batch)], members, links, schedule, params,
                    record_raster=record_raster,
                )
                peaks[record_raster] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        raster_bytes = steps * sum(topo.size for topo, _ in members) * batch
        assert peaks[True] - peaks[False] >= 0.9 * raster_bytes

    def test_non_finite_sample_in_a_batch_rejected(self):
        samples = [np.ones((20, 16)) for _ in range(3)]
        samples[1][4, :] = np.inf
        with pytest.raises(NumericsError):
            run_mulre(samples, self.members(2), self.PARAMS)

    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_sparse_samples_match_stacked(self, variant):
        """A list of per-sample CSR rates, which a batch of count files
        holds, steps exactly as a list of the same rates held dense."""
        params, steps, batch = self.PARAMS, 90, 4
        members = self.members(3)
        stack = np.random.default_rng(13).gamma(0.8, 1.3, size=(steps, batch, 16))
        stack[stack < 1.5] = 0.0  # sparse, as event counts are
        stack[:, 2] = 0.0  # a silent sample holds no stored rate
        rows = [sparse.csr_matrix(stack[:, b]) for b in range(batch)]
        if variant == "tepre":
            links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
            schedule = equal_split_schedule(steps, len(members))

            def run(rates):
                return run_tepre(
                    rates, members, links, schedule, params,
                    record_raster=True, record_drive=True,
                )
        else:

            def run(rates):
                return run_mulre(rates, members, params, record_raster=True)

        dense = [stack[:, b] for b in range(batch)]
        for got, want in zip(run(rows), run(dense), strict=True):
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.counts, w.counts)
                assert np.array_equal(g.raster, w.raster)
                if variant == "tepre":
                    assert np.array_equal(g.slab_counts, w.slab_counts)
                    assert g.drive_l1.tobytes() == w.drive_l1.tobytes()

    def test_rates_of_unequal_shape_rejected(self):
        rows = [sparse.csr_matrix((20, 16)), sparse.csr_matrix((21, 16))]
        with pytest.raises(ConfigError, match="one shape"):
            run_mulre(rows, self.members(2), self.PARAMS)

    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_single_sparse_sample_matches_its_dense_call(self, variant):
        """One sample's CSR rates, which a lone count file holds, step
        exactly as the same rates held dense."""
        params, steps = self.PARAMS, 90
        members = self.members(3)
        rates = np.random.default_rng(14).gamma(0.8, 1.3, size=(steps, 16))
        rates[rates < 1.5] = 0.0
        if variant == "tepre":
            links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
            schedule = equal_split_schedule(steps, len(members))

            def run(rates):
                return run_tepre(
                    rates, members, links, schedule, params,
                    record_raster=True, record_drive=True,
                )
        else:

            def run(rates):
                return run_mulre(rates, members, params, record_raster=True)

        got, want = run(sparse.csr_matrix(rates)), run(rates)
        assert sum(record.counts.sum() for record in want) > 0
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.counts, w.counts)
            assert np.array_equal(g.raster, w.raster)
            if variant == "tepre":
                assert np.array_equal(g.slab_counts, w.slab_counts)
                assert g.drive_l1.tobytes() == w.drive_l1.tobytes()

    def test_stacked_array_of_samples_rejected(self):
        # a (T, B, n) array is neither accepted form: one (T, n) matrix or a list
        with pytest.raises(ConfigError, match=r"\(T, n_inputs\) matrix.*list of such"):
            run_mulre(np.ones((20, 3, 16)), self.members(2), self.PARAMS)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, 10, 19], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("form", ["single", "stacked", "sparse"])
    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_non_finite_rate_in_any_step_rejected(self, variant, form, row, value):
        # the last step's result is checked too, though no step follows it
        members = self.members(2)
        stack = np.ones((20, 3, 16))
        stack[row, 1, :] = value
        rates = {
            "single": stack[:, 1],
            "stacked": [stack[:, b] for b in range(3)],
            "sparse": [sparse.csr_matrix(stack[:, b]) for b in range(3)],
        }[form]
        with pytest.raises(NumericsError):
            if variant == "tepre":
                links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
                schedule = equal_split_schedule(20, len(members))
                run_tepre(rates, members, links, schedule, self.PARAMS)
            else:
                run_mulre(rates, members, self.PARAMS)

    def records_of(self, rates, variant):
        """Each sample's records of one tepre run (inter-links, raster and
        drive recorded) or mulre run (raster recorded) on a 20-step window,
        every array as (dtype, shape, bytes); tepre's equal split gives
        uneven slabs of 6, 7 and 7 steps."""
        members = self.members(3)
        if variant == "tepre":
            links = build_tepre([t for t, _ in members], 0.08, -0.37, seed=7)
            schedule = equal_split_schedule(20, len(members))
            out = run_tepre(
                rates, members, links, schedule, self.PARAMS,
                record_raster=True, record_drive=True,
            )
        else:
            out = run_mulre(rates, members, self.PARAMS, record_raster=True)
        fields = ("counts", "slab_counts", "raster", "drive_l1")
        return [
            [
                {
                    name: None if value is None else (value.dtype, value.shape, value.tobytes())
                    for name in fields
                    for value in [getattr(record, name)]
                }
                for record in sample
            ]
            for sample in (out if isinstance(rates, list) else [out])
        ]

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("form", ["dense", "sparse", "batch"])
    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_drive_block_size_bounds_memory_only(self, monkeypatch, variant, form, block):
        """Mapping the drive in blocks of 1 or 7 steps, which split the
        slabs unevenly, or of more steps than the window, gives records
        byte-equal to mapping each slab in one block."""
        stack = np.random.default_rng(15).gamma(0.8, 1.3, size=(20, 3, 16))
        stack[stack < 1.0] = 0.0
        rates = {
            "dense": stack[:, 0],
            "sparse": sparse.csr_matrix(stack[:, 1]),
            "batch": [stack[:, 0], sparse.csr_matrix(stack[:, 1]), stack[:, 2]],
        }[form]
        monkeypatch.setattr(ensemble_module, "DRIVE_BLOCK_STEPS", 20)
        whole = self.records_of(rates, variant)
        for sample in whole:  # every sample spikes in every member
            assert all(np.frombuffer(r["counts"][2], np.int64).sum() > 0 for r in sample)
        monkeypatch.setattr(ensemble_module, "DRIVE_BLOCK_STEPS", block)
        assert self.records_of(rates, variant) == whole

    @pytest.mark.parametrize("variant", ["tepre", "mulre"])
    def test_sparse_sample_made_canonical_csr_once(self, monkeypatch, variant):
        """A CSC sample, and a CSR one that stores each (step, input) twice
        in shuffled order, give the records of their canonical CSR form;
        every window of a call reads the one canonical CSR matrix made at
        its start."""
        rng = np.random.default_rng(16)
        rates = rng.poisson(0.6, size=(20, 16)).astype(np.float64)
        step, col = np.nonzero(rates)
        half = np.floor(rates[step, col] / 2)
        steps, cols = np.tile(step, 2), np.tile(col, 2)
        values = np.concatenate([half, rates[step, col] - half])
        order = rng.permutation(steps.size)
        order = order[np.argsort(steps[order], kind="stable")]  # rows grouped
        ptr = np.concatenate([[0], np.cumsum(np.bincount(steps, minlength=20))])
        doubled = sparse.csr_matrix((values[order], cols[order], ptr), shape=rates.shape)
        assert not doubled.has_canonical_format
        assert np.array_equal(doubled.toarray(), rates)
        seen, window = [], ensemble_module._window

        def recording_window(samples, start, end):
            seen.append([sample for sample in samples if sparse.issparse(sample)])
            return window(samples, start, end)

        monkeypatch.setattr(ensemble_module, "_window", recording_window)
        monkeypatch.setattr(ensemble_module, "DRIVE_BLOCK_STEPS", 4)
        want = self.records_of(sparse.csr_matrix(rates), variant)
        for form in (sparse.csc_matrix(rates), doubled):
            seen.clear()
            assert self.records_of(form, variant) == want
            assert len(seen) >= 5 and all(len(got) == 1 for got in seen)
            made = seen[0][0]
            assert made.format == "csr" and made.has_canonical_format
            assert all(got[0] is made for got in seen)
        assert not doubled.has_canonical_format  # the caller's matrix is left as it was
        assert self.records_of([doubled, sparse.csc_matrix(rates)], variant) == want * 2


def receptive_member(seed, width=10, height=10, channels=18, dims=GridDims(6, 6, 4)):
    """A member wired like an nmnist-mulre3 one: every Gabor channel of a
    pixel shares that pixel's receptive window."""
    field = ReceptiveField(window=3, input_width=width, input_height=height, channels=channels)
    spec = InputSpec(
        n_inputs=width * height * channels, input_weight=3.7, density=0.3,
        scheme="receptive_field", field=field,
    )
    return build_reservoir(dims, ConnectionLaw(lam=2.0, d=1.0), PARAMS, seed), build_input(
        spec, dims, seed + 1
    )


class TestDriveMap:
    """The input-major product adds each output's terms in the order a
    row-major one does, so the drive is bit-identical to it."""

    def rates(self, n_inputs):
        rng = np.random.default_rng(4)
        rates = rng.gamma(0.8, 1.3, size=(70, n_inputs))
        # exact zeros and FFT-round-off-sized values among ordinary ones
        pick = rng.random(rates.shape)
        rates[pick < 0.3] = 0.0
        rates[(pick >= 0.3) & (pick < 0.5)] = 1e-15
        return rates

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_row_major_product(self, order):
        _, imap = receptive_member(seed=21)
        rates = np.asarray(self.rates(imap.n_inputs), order=order)
        reference = sparse.csr_matrix(
            (imap.weight, (imap.reservoir_idx, imap.input_idx)),
            shape=(imap.n_reservoir, imap.n_inputs),
        )
        want = reference.dot(rates.T).T
        got = drive_through_map(rates, imap)
        assert got.shape == (70, imap.n_reservoir)
        assert np.count_nonzero(want) > 0
        assert np.array_equal(
            np.ascontiguousarray(got).view(np.uint64),
            np.ascontiguousarray(want).view(np.uint64),
        )

    def test_slab_makes_one_window_copy_for_all_members(self, monkeypatch):
        """Three members of a multi-length-scale slab at a scaled-down
        nmnist geometry (18 Gabor channels of 10x10 pixels) map one shared
        input-major copy of the window: no member's mapping copies the
        rates again, and the slab holds at most that one copy of its first
        block of steps beside the members' blocks of output, which go
        straight into the step buffer with no second copy of them all."""
        members = [receptive_member(seed=30 + 2 * r) for r in range(3)]
        for _, imap in members:
            imap.matrix()  # memoized outside the measurement
        steps, n_inputs = 100, members[0][1].n_inputs
        block = ensemble_module.DRIVE_BLOCK_STEPS
        assert block < steps
        rates = np.random.default_rng(6).gamma(0.8, 1.3, size=(steps, n_inputs))
        window_bytes = block * n_inputs * 8
        original, extra = ensemble_module.drive_through_map, []

        def traced(rates, imap):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            drive = original(rates, imap)
            extra.append(tracemalloc.get_traced_memory()[1] - before - drive.nbytes)
            return drive

        monkeypatch.setattr(ensemble_module, "drive_through_map", traced)
        tracemalloc.start()
        try:
            offsets = np.cumsum([0] + [topo.size for topo, _ in members])
            slabs = [(0, steps, 0, 3)]
            next(ensemble_module.gated_drive([rates], members, offsets, slabs))  # maps it
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(extra) == 3
        assert max(extra) < window_bytes // 10
        block_bytes = sum(topo.size for topo, _ in members) * block * 8
        # the window copy and the members' blocks, one of them being mapped
        assert peak < window_bytes + block_bytes + 32 * 1024
