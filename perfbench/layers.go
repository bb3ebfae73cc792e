package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/quaddiag"
)

// perLayer lists the traced run's metrics, named by repository module. A
// traced run reports every one of them; a layer that is not on the
// workload's path reads 0.
var perLayer = []struct{ name, unit string }{
	{"router.self_us", "us"},
	{"router.failovers", "count"},
	{"router.no_replica", "count"},
	{"transport.self_us", "us"},
	{"transport.client_self_us", "us"},
	{"server.read_self_us", "us"},
	{"server.resp_bytes", "B"},
	{"server.batch_self_us_per_query", "us"},
	{"server.write_self_ms", "ms"},
	{"server.mixed_read_self_us", "us"},
	{"server.coalesce_batch_size", "count"},
	{"server.compactions", "count"},
	{"server.delta_hits", "count"},
	{"server.delta_fallbacks.ring_miss", "count"},
	{"server.delta_fallbacks.not_smaller", "count"},
	{"server.delta_fallbacks.kind", "count"},
	{"server.delta_fallbacks.shape", "count"},
	{"server.delta_fallbacks.disabled", "count"},
	{"server.shed", "count"},
	{"replica.refresh_ms", "ms"},
	{"store.query_ns", "ns"},
	{"store.locate_ns", "ns"},
	{"store.write_ms", "ms"},
	{"store.manifest_ms", "ms"},
	{"store.delta_ms", "ms"},
	{"store.apply_delta_ms", "ms"},
	{"store.open_mmap_ms", "ms"},
	{"store.delta_ratio", "ratio"},
	{"store.file_bytes", "B"},
	{"wal.commit_ms", "ms"},
	{"wal.syncs_per_write", "count"},
	{"wal.bytes_per_write", "B"},
	{"core.apply_ms", "ms"},
	{"core.compact_ms", "ms"},
	{"core.query_ns.quadrant", "ns"},
	{"core.query_ns.global", "ns"},
	{"core.query_ns.dynamic", "ns"},
	{"core.result_ids", "count"},
	{"core.empty_share", "ratio"},
	{"core.build_ms", "ms"},
	{"grid.new_grid_ms", "ms"},
	{"grid.new_subgrid_ms", "ms"},
	{"quaddiag.build_ms", "ms"},
	{"quaddiag.build_global_ms", "ms"},
	{"dyndiag.build_ms", "ms"},
	{"setup.build_ms", "ms"},
	{"setup.persist_ms", "ms"},
	{"setup.serve_ms", "ms"},
	{"setup.bootstrap_ms", "ms"},
	{"setup.ready_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"overhead.setup_s", "s"},
	{"overhead.heap_mb", "MB"},
	{"overhead.ops_per_s", "1/s"},
	{"overhead.p50_ms", "ms"},
	{"overhead.tail_ms", "ms"},
	{"overhead.bytes_per_op", "B"},
}

// buildReps is how many times each build layer is replayed; the median
// counts.
const buildReps = 3

// buildLayers replays the public build calls behind a workload's set-up on
// its points: the grid, each diagram construction that set-up runs (as
// core does, in parallel over GOMAXPROCS workers), and the core entry
// point the set-up calls (coreBuild).
func buildLayers(pts []geom.Point, global, dynamic bool, coreBuild func() error, out map[string]float64) error {
	type layer struct {
		name string
		on   bool
		f    func() error
	}
	for _, l := range []layer{
		{"grid.new_grid_ms", true, func() error { grid.NewGrid(pts); return nil }},
		{"grid.new_subgrid_ms", dynamic, func() error { grid.NewSubGrid(pts); return nil }},
		{"quaddiag.build_ms", true, func() error {
			_, err := quaddiag.BuildParallel(pts, quaddiag.AlgScanning, -1)
			return err
		}},
		{"quaddiag.build_global_ms", global, func() error {
			_, err := quaddiag.BuildGlobalParallel(pts, quaddiag.AlgScanning, -1)
			return err
		}},
		{"dyndiag.build_ms", dynamic, func() error {
			_, err := dyndiag.BuildParallel(pts, dyndiag.AlgScanning, -1)
			return err
		}},
		{"core.build_ms", true, coreBuild},
	} {
		if !l.on {
			continue
		}
		d, err := timeIt(buildReps, l.f)
		if err != nil {
			return err
		}
		out[l.name] = ms(d)
	}
	return nil
}

// queryNs replays QueryXY over qs and returns the mean ns per query plus
// the mean answer size and the empty-answer share.
func queryNs(qs [][2]float64, query func(x, y float64) []int32) (ns, ids, empty float64) {
	var n, e int
	for _, q := range qs {
		r := query(q[0], q[1])
		n += len(r)
		if len(r) == 0 {
			e++
		}
	}
	const rounds = 5
	var best time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for _, q := range qs {
			query(q[0], q[1])
		}
		if d := time.Since(t0); r == 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(len(qs)), float64(n) / float64(len(qs)), float64(e) / float64(len(qs))
}

// updateOpts are the maintenance options a skyserve builder uses.
func updateOpts() core.UpdateOptions {
	return core.UpdateOptions{MaxDynamicPoints: 128, Workers: -1}
}
