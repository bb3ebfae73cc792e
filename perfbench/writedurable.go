package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// write-durable: a builder holds n=400 independent points with the WAL on.
// One closed-loop writer inserts a random point with a fresh id and then
// deletes it; after every ack the benchmark calls Replica.Refresh on an
// in-process replica that negotiates deltas like skyserve -primary. Beside
// it one open-loop reader sends global queries to the builder at a fixed
// rate, each timed from its due time. This is the only workload that runs
// core maintenance, the WAL, the publish re-hash, delta encode/patch and the
// replica's mmap swap.
const (
	durableN      = 400
	mixedRate     = 200 // open-loop reads per second
	durablePool   = 4096
	mixedSample   = 8 // every mixedSample-th read is answer-checked
	insertBase    = 1_000_000
	replayOps     = 40  // traced ops replayed layer by layer
	checkQueries  = 200 // end-of-run replica-vs-builder comparisons
	startingEpoch = 1
	// durableSegment is the load between calibration slices: ~20 writes,
	// too few for per-segment quantiles, so the segments' scaled samples
	// are pooled.
	durableSegment = 2 * time.Second
)

type writeDurable struct {
	dir     string
	pts     []geom.Point
	inserts [][2]float64
	reads   [][2]float64

	setupN  int
	builder *server.Handler
	bsrv    *listener
	replica *server.Handler
	rep     *server.Replica
	rsrv    *listener
	client  *http.Client
	reqID   atomic.Uint64

	// opLog holds every op sent since set-up; op j publishes epoch
	// startingEpoch+j+1, so the state at any epoch is known.
	opLog []core.Op
	// traced ops: the op index and request id of each write in the traced phase.
	tracedOps []tracedOp
}

type tracedOp struct {
	j   int
	req uint64
}

func newWriteDurable(seed int64, dir string) (*writeDurable, error) {
	pts, err := rankPoints(dataset.Independent, durableN, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	w := &writeDurable{dir: dir, pts: pts}
	for i := 0; i < durablePool; i++ {
		w.inserts = append(w.inserts, [2]float64{offLine(rng, durableN), offLine(rng, durableN)})
		w.reads = append(w.reads, [2]float64{offLine(rng, durableN), offLine(rng, durableN)})
	}
	return w, nil
}

func (w *writeDurable) setup(tr *tracer) error {
	w.setupN++
	walDir := filepath.Join(w.dir, fmt.Sprintf("wal-%d", w.setupN))
	snapDir := filepath.Join(w.dir, fmt.Sprintf("replica-%d", w.setupN))
	w.opLog, w.tracedOps = nil, nil

	done := tr.begin("setup.build", "setup", 0)
	cfg := serverConfig()
	cfg.WALDir = walDir
	h, err := server.New(w.pts, cfg)
	done()
	if err != nil {
		return err
	}
	w.builder = h
	done = tr.begin("setup.serve", "setup", 0)
	var api http.Handler = h
	if tr != nil {
		api = tr.handler("server", "client", h)
	}
	w.bsrv, err = listen(skyserveStack(api))
	done()
	if err != nil {
		return err
	}

	done = tr.begin("setup.bootstrap", "setup", 0)
	w.replica, w.rep, err = server.BootstrapReplica(context.Background(),
		server.ReplicaConfig{Primary: w.bsrv.url, Dir: snapDir}, serverConfig())
	if err == nil {
		w.rsrv, err = listen(skyserveStack(w.replica))
	}
	done()
	if err != nil {
		return err
	}

	done = tr.begin("setup.ready", "setup", 0)
	defer done()
	w.client = newClient()
	for _, base := range []string{w.bsrv.url, w.rsrv.url} {
		if e, err := w.epoch(base); err != nil || e != startingEpoch {
			return fmt.Errorf("health of %s: epoch %d, %v", base, e, err)
		}
	}
	return nil
}

func (w *writeDurable) teardown() {
	w.bsrv.close()
	w.rsrv.close()
	if w.rep != nil {
		w.rep.Close()
	}
	if w.builder != nil {
		w.builder.Shutdown(context.Background())
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.bsrv, w.rsrv, w.rep, w.replica, w.builder, w.client = nil, nil, nil, nil, nil, nil
}

// epoch reads a node's served epoch from its health endpoint.
func (w *writeDurable) epoch(base string) (uint64, error) {
	code, hdr, _, err := get(w.client, base+"/v1/health")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("health status %d", code)
	}
	return strconv.ParseUint(hdr.Get("X-Sky-Epoch"), 10, 64)
}

func (w *writeDurable) registries() []*metrics.Registry {
	return []*metrics.Registry{w.builder.Metrics(), w.replica.Metrics()}
}

// writerStats is the writer's tally: ack latencies are its primary
// samples, visible latencies and Refresh durations ride along.
type writerStats struct {
	tally
	visible, refresh samples
}

// readerStats is the open-loop reader's tally plus its lateness and the
// answers kept for checking.
type readerStats struct {
	tally
	lag    samples
	checks []mixedCheck
}

// mixedCheck is one sampled mixed read: the epoch it was served from, the
// query's index in the pool, and the answer.
type mixedCheck struct {
	epoch uint64
	q     int
	ids   []int32
}

func (w *writeDurable) load(d time.Duration, tr *tracer) (*outcome, error) {
	before, err := counters(w.registries()...)
	if err != nil {
		return nil, err
	}
	var ws writerStats
	var rs readerStats
	o := &outcome{tailQ: 0.90, perSample: 1, pooled: true}
	o.runSegments(d, durableSegment, func(start, deadline time.Time) samples {
		var wg sync.WaitGroup
		wg.Add(2)
		acked := len(ws.lat)
		go func() {
			defer wg.Done()
			w.writer(deadline, tr, &ws)
		}()
		go func() {
			defer wg.Done()
			w.reader(start, deadline, tr, &rs)
		}()
		wg.Wait()
		return ws.lat[acked:]
	})
	o.ops = float64(len(ws.lat))
	after, err := counters(w.registries()...)
	if err != nil {
		return nil, err
	}
	o.counts = delta(before, after)
	for k, v := range o.counts {
		if strings.HasPrefix(k, "skyserve_snapshot_bytes_total") {
			o.bytes += v
		}
	}
	o.attempted = ws.attempted + rs.attempted
	o.failed = ws.failed + rs.failed
	o.answers, o.empty = rs.answers, rs.empty
	for _, c := range rs.checks {
		if !sameIDs(c.ids, oracle("global", w.stateAt(c.epoch), w.reads[c.q][0], w.reads[c.q][1])) {
			o.wrong++
			o.failed++
		}
	}
	e := o.endToEnd()
	o.named = map[string]metric{
		"writes_per_s":         {e["ops_per_s"], "1/s"},
		"write_ack_p50_ms":     {e["p50_ms"], "ms"},
		"write_ack_p90_ms":     {e["tail_ms"], "ms"},
		"visible_p50_ms":       {ws.visible.quantile(0.5), "ms"},
		"repl_bytes_per_write": {e["bytes_per_op"], "B"},
		"mixed_read_p50_us":    {rs.lat.quantile(0.5) * 1e3, "us"},
		"mixed_read_p99_us":    {rs.lat.quantile(0.99) * 1e3, "us"},
		"loadgen.lag_ms":       {rs.lag.quantile(0.99), "ms"},
		"samples.visible":      {float64(len(ws.visible)), "count"},
		"samples.mixed_read":   {float64(len(rs.lat)), "count"},
		"replica.refresh_ms":   {ws.refresh.quantile(0.5), "ms"},
	}
	return o, nil
}

// stateAt is the point set the builder serves at epoch e.
func (w *writeDurable) stateAt(e uint64) []geom.Point {
	j := int(e) - startingEpoch - 1 // the op that published e
	if j < 0 || j >= len(w.opLog) || !w.opLog[j].Insert {
		return w.pts
	}
	return append(append([]geom.Point(nil), w.pts...), w.opLog[j].Point)
}

// writer is the closed-loop writer: insert, then delete the same id, each
// acked and then made visible on the replica before the next op. It always
// finishes a pair, so the point count returns to its starting value.
func (w *writeDurable) writer(deadline time.Time, tr *tracer, s *writerStats) {
	ctx := context.Background()
	var buf bytes.Buffer
	for j := len(w.opLog); j%2 == 1 || time.Now().Before(deadline); j++ {
		pair := j / 2
		id := insertBase + pair
		var req *http.Request
		var err error
		var op core.Op
		want := http.StatusCreated
		if j%2 == 0 {
			q := w.inserts[pair%durablePool]
			op = core.InsertOp(geom.Pt2(id, q[0], q[1]))
			body := fmt.Sprintf(`{"id":%d,"coords":[%s,%s]}`, id, fmtCoord(q[0]), fmtCoord(q[1]))
			req, err = http.NewRequest(http.MethodPost, w.bsrv.url+"/v1/points", strings.NewReader(body))
		} else {
			op = core.DeleteOp(id)
			want = http.StatusOK
			req, err = http.NewRequest(http.MethodDelete, w.bsrv.url+"/v1/points/"+strconv.Itoa(id), nil)
		}
		w.opLog = append(w.opLog, op)
		s.attempted++
		if err != nil {
			s.failed++
			continue
		}
		rid := w.reqID.Add(1)
		if tr.active() {
			w.tracedOps = append(w.tracedOps, tracedOp{j: j, req: rid})
		}
		t0 := time.Now()
		resp, ack, err := send(w.client, req, tr, "client", rid, &buf)
		if err != nil || resp.StatusCode != want {
			s.failed++
			continue
		}
		s.lat = append(s.lat, ack)

		// The write is published before it is acked; make it visible on
		// the replica and confirm the replica serves that epoch.
		published := uint64(startingEpoch + j + 1)
		done := tr.begin("replica.refresh", "", rid)
		r0 := time.Now()
		_, err = w.rep.Refresh(ctx)
		s.refresh = append(s.refresh, time.Since(r0))
		done()
		if err != nil {
			s.failed++
			continue
		}
		if e, err := w.epoch(w.rsrv.url); err != nil || e < published {
			s.failed++
			continue
		}
		s.visible = append(s.visible, time.Since(t0))
	}
}

// reader is the open-loop reader: request k is due at start + k/mixedRate
// and is timed from its due time, so a stall also delays later requests.
func (w *writeDurable) reader(start, deadline time.Time, tr *tracer, s *readerStats) {
	var buf bytes.Buffer
	interval := time.Second / mixedRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s.lag = append(s.lag, time.Since(due))
		qi := (k * 7) % durablePool
		q := w.reads[qi]
		url := w.bsrv.url + "/v1/skyline?kind=global&x=" + fmtCoord(q[0]) + "&y=" + fmtCoord(q[1])
		s.attempted++
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			s.failed++
			continue
		}
		resp, _, err := send(w.client, req, tr, "client", w.reqID.Add(1), &buf)
		lat := time.Since(due)
		if err != nil || resp.StatusCode != http.StatusOK {
			s.failed++
			continue
		}
		s.lat = append(s.lat, lat)
		s.answers++
		body := buf.Bytes()
		if bytes.Contains(body, emptyIDs) {
			s.empty++
		}
		if k%mixedSample == 0 {
			e, err1 := strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64)
			ids, err2 := idsOf(body)
			if err1 != nil || err2 != nil {
				s.failed++
				continue
			}
			s.checks = append(s.checks, mixedCheck{epoch: e, q: qi, ids: ids})
		}
	}
}

// check brings the replica up to date and compares its answers with the
// builder's and with the oracle on the starting points, which the builder
// must be serving again, and checks the point count.
func (w *writeDurable) check() (int, error) {
	if _, err := w.rep.Refresh(context.Background()); err != nil {
		return 0, err
	}
	be, err := w.epoch(w.bsrv.url)
	if err != nil {
		return 0, err
	}
	wrong := 0
	if re, err := w.epoch(w.rsrv.url); err != nil || re != be {
		wrong++
	}
	code, _, body, err := get(w.client, w.bsrv.url+"/v1/stats")
	if err != nil {
		return 0, err
	}
	var stats struct {
		Points int `json:"points"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &stats) != nil || stats.Points != durableN {
		wrong++
	}
	for i := 0; i < checkQueries; i++ {
		q := w.reads[i]
		want := oracle("quadrant", w.pts, q[0], q[1])
		for _, base := range []string{w.bsrv.url, w.rsrv.url} {
			url := base + "/v1/skyline?kind=quadrant&x=" + fmtCoord(q[0]) + "&y=" + fmtCoord(q[1])
			code, _, body, err := get(w.client, url)
			if err != nil {
				return 0, err
			}
			got, err := idsOf(body)
			if code != http.StatusOK || err != nil || !sameIDs(got, want) {
				wrong++
			}
		}
	}
	return wrong, nil
}

// layers replays the traced writes through the public calls the builder
// and the replica make internally, in the same order and from the same
// states: core maintenance, the WAL group commit, the canonical store
// bytes and their page manifest (the publish re-hash), the delta and its
// patch, and the mmap open. The handler's self time per write is its span
// minus the replayed apply, WAL and publish steps of that write.
func (w *writeDurable) layers(spans []span, o *outcome, out map[string]float64) error {
	set, err := core.BuildSet(w.pts, updateOpts())
	if err != nil {
		return err
	}
	qns, ids, empty := queryNs(w.reads, set.Global.QueryXY)
	out["core.query_ns.global"] = qns
	out["core.result_ids"] = ids
	out["core.empty_share"] = empty

	dir := filepath.Join(w.dir, "replay")
	log, _, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	epoch := uint64(startingEpoch)
	prev, prevMan, err := canonical(set, epoch)
	if err != nil {
		return err
	}
	out["store.file_bytes"] = float64(len(prev))

	var apply, commit, write, manifest, dlt, patch, open, compact, self []float64
	var walBytes, ratio float64
	serverSelf := selfTimes(spans, "server")
	n := 0
	for _, t := range w.tracedOps {
		if n == replayOps {
			break
		}
		op := w.opLog[t.j]
		if n == 0 && !op.Insert {
			continue // start the replay from the starting points
		}
		n++
		t0 := time.Now()
		next, _, err := set.ApplyBatch([]core.Op{op}, updateOpts())
		if err != nil {
			return err
		}
		a := time.Since(t0)
		epoch++
		size := log.Size()
		t0 = time.Now()
		if err := log.Commit(epoch, []core.Op{op}); err != nil {
			return err
		}
		c := time.Since(t0)
		walBytes += float64(log.Size() - size)
		t0 = time.Now()
		data, err := canonicalBytes(next, epoch)
		if err != nil {
			return err
		}
		wr := time.Since(t0)
		t0 = time.Now()
		man, err := store.NewManifest(data)
		if err != nil {
			return err
		}
		m := time.Since(t0)
		t0 = time.Now()
		d, err := store.Delta(prevMan, man, data)
		if err != nil {
			return err
		}
		dlt = append(dlt, ms(time.Since(t0)))
		ratio += float64(len(d)) / float64(len(data))
		t0 = time.Now()
		patched, err := store.ApplyDelta(prev, d)
		if err != nil {
			return err
		}
		patch = append(patch, ms(time.Since(t0)))
		path := filepath.Join(dir, "snap.sky")
		if err := os.WriteFile(path, patched, 0o644); err != nil {
			return err
		}
		t0 = time.Now()
		st, err := store.OpenMmap(path)
		if err != nil {
			return err
		}
		open = append(open, ms(time.Since(t0)))
		st.Close()
		if next.ArenaGarbageRatio() >= server.DefaultCompactRatio {
			t0 = time.Now()
			next = next.CompactArenas()
			compact = append(compact, ms(time.Since(t0)))
		}
		apply = append(apply, ms(a))
		commit = append(commit, ms(c))
		write = append(write, ms(wr))
		manifest = append(manifest, ms(m))
		if sp, ok := serverSelf[t.req]; ok {
			self = append(self, ms(sp)-ms(a+c+wr+m))
		}
		set, prev, prevMan = next, data, man
	}
	if n == 0 {
		return fmt.Errorf("no traced writes to replay")
	}
	if len(compact) == 0 {
		// The garbage ratio never reached the trigger within the replay:
		// time one compaction of the replay's end state instead.
		t0 := time.Now()
		set.CompactArenas()
		compact = append(compact, ms(time.Since(t0)))
	}
	out["core.apply_ms"] = median(apply)
	out["core.compact_ms"] = median(compact)
	out["wal.commit_ms"] = median(commit)
	out["wal.bytes_per_write"] = walBytes / float64(n)
	out["store.write_ms"] = median(write)
	out["store.manifest_ms"] = median(manifest)
	out["store.delta_ms"] = median(dlt)
	out["store.apply_delta_ms"] = median(patch)
	out["store.open_mmap_ms"] = median(open)
	out["store.delta_ratio"] = ratio / float64(n)
	out["server.write_self_ms"] = median(self)

	writes := map[uint64]bool{}
	for _, t := range w.tracedOps {
		writes[t.req] = true
	}
	out["server.mixed_read_self_us"] = medianUs(serverSelf, func(id uint64) bool { return !writes[id] }) - qns/1e3
	out["replica.refresh_ms"] = o.named["replica.refresh_ms"].Value
	out["loadgen.lag_ms"] = o.named["loadgen.lag_ms"].Value
	out["server.coalesce_batch_size"] = o.counts["skyserve_coalesce_batch_size_sum"] /
		max(o.counts["skyserve_coalesce_batch_size_count"], 1)
	out["server.compactions"] = o.counts["skyserve_compactions_total"]
	out["server.delta_hits"] = o.counts["skyserve_snapshot_delta_hits_total"]
	for _, reason := range []string{"ring_miss", "not_smaller", "kind", "shape", "disabled"} {
		out["server.delta_fallbacks."+reason] = o.counts[`skyserve_snapshot_delta_fallbacks_total{reason="`+reason+`"}`]
	}
	out["server.shed"] = o.counts["skyserve_shed_total"]
	out["wal.syncs_per_write"] = o.counts["skyserve_wal_commits_total"] / max(o.ops, 1)
	return buildLayers(w.pts, true, false, func() error {
		_, err := core.BuildSet(w.pts, updateOpts())
		return err
	}, out)
}

// canonical returns the snapshot bytes a builder publishes for set at
// epoch, and their page manifest.
func canonical(set *core.DiagramSet, epoch uint64) ([]byte, *store.Manifest, error) {
	data, err := canonicalBytes(set, epoch)
	if err != nil {
		return nil, nil, err
	}
	m, err := store.NewManifest(data)
	return data, m, err
}

func canonicalBytes(set *core.DiagramSet, epoch uint64) ([]byte, error) {
	var buf bytes.Buffer
	err := store.WriteEpoch(&buf, set.Quadrant.Cells(), epoch)
	return buf.Bytes(), err
}
