package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/store"
)

// read-routed: two closed-loop clients send single quadrant queries to a
// router in front of two serve-from replicas that mmap one n=1000
// anti-correlated quadrant file. The request layers (router, loopback
// transport, handler, encode) do nearly all the work.
const (
	routedN       = 1000
	routedClients = 2
	routedPool    = 4096 // distinct queries, cycled
	routedSample  = 64   // every routedSample-th query is answer-checked
)

type readRouted struct {
	dir     string
	pts     []geom.Point
	queries [][2]float64
	expect  map[int][]int32 // pool index -> expected ids

	path     string
	stores   []*store.Store
	replicas []*server.Handler
	servers  []*listener
	rt       *router.Router
	front    *listener
	stop     context.CancelFunc
	health   chan struct{}
	client   *http.Client
	urls     []string
	reqID    atomic.Uint64
}

func newReadRouted(seed int64, dir string) (*readRouted, error) {
	pts, err := rankPoints(dataset.AntiCorrelated, routedN, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	w := &readRouted{dir: dir, pts: pts, expect: map[int][]int32{}}
	for i := 0; i < routedPool; i++ {
		w.queries = append(w.queries, [2]float64{offLine(rng, routedN), offLine(rng, routedN)})
	}
	for i := 0; i < routedPool; i += routedSample {
		q := w.queries[i]
		w.expect[i] = oracle("quadrant", pts, q[0], q[1])
	}
	return w, nil
}

func (w *readRouted) setup(tr *tracer) error {
	done := tr.begin("setup.build", "setup", 0)
	qd, err := core.BuildQuadrant(w.pts, core.Options{Workers: -1})
	done()
	if err != nil {
		return err
	}
	done = tr.begin("setup.persist", "setup", 0)
	w.path = filepath.Join(w.dir, "quadrant.sky")
	err = store.CreateFileEpoch(w.path, qd.Cells(), 1)
	done()
	if err != nil {
		return err
	}

	done = tr.begin("setup.serve", "setup", 0)
	var bases []string
	for i := 0; i < 2; i++ {
		st, err := store.OpenMmap(w.path)
		if err != nil {
			done()
			return err
		}
		w.stores = append(w.stores, st)
		h, err := server.NewServeFrom(st, serverConfig())
		if err != nil {
			done()
			return err
		}
		w.replicas = append(w.replicas, h)
		var api http.Handler = h
		if tr != nil {
			api = tr.handler("server.read", "transport", h)
		}
		l, err := listen(skyserveStack(api))
		if err != nil {
			done()
			return err
		}
		w.servers = append(w.servers, l)
		bases = append(bases, l.url)
	}
	cfg := router.Config{Replicas: bases, HealthInterval: time.Second}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Timeout: 15 * time.Second,
			Transport: transport{t: tr, next: http.DefaultTransport}}
	}
	w.rt, err = router.New(cfg)
	if err != nil {
		done()
		return err
	}
	var front http.Handler = w.rt
	if tr != nil {
		front = tr.handler("router", "client.read", w.rt)
	}
	w.front, err = listen(front)
	done()
	if err != nil {
		return err
	}

	// Ready once the router has probed both replicas and answers health
	// with the file's epoch.
	done = tr.begin("setup.ready", "setup", 0)
	defer done()
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	w.rt.HealthCheck(ctx)
	w.health = make(chan struct{})
	go func() {
		defer close(w.health)
		w.rt.Run(ctx)
	}()
	w.client = newClient()
	code, hdr, _, err := get(w.client, w.front.url+"/v1/health")
	if err != nil {
		return err
	}
	if code != http.StatusOK || hdr.Get("X-Sky-Epoch") != "1" {
		return fmt.Errorf("router health: status %d epoch %q", code, hdr.Get("X-Sky-Epoch"))
	}
	w.urls = make([]string, len(w.queries))
	for i, q := range w.queries {
		w.urls[i] = w.front.url + "/v1/skyline?kind=quadrant&x=" + fmtCoord(q[0]) + "&y=" + fmtCoord(q[1])
	}
	return nil
}

func (w *readRouted) teardown() {
	if w.stop != nil {
		w.stop()
		<-w.health
		w.stop = nil
	}
	w.front.close()
	for _, l := range w.servers {
		l.close()
	}
	for _, st := range w.stores {
		st.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.front, w.servers, w.stores, w.replicas, w.client = nil, nil, nil, nil, nil
}

func (w *readRouted) registries() []*metrics.Registry {
	regs := []*metrics.Registry{w.rt.Metrics()}
	for _, h := range w.replicas {
		regs = append(regs, h.Metrics())
	}
	return regs
}

func (w *readRouted) load(d time.Duration, tr *tracer) (*outcome, error) {
	before, err := counters(w.registries()...)
	if err != nil {
		return nil, err
	}
	o := closedLoop(routedClients, d, func(c int, deadline time.Time, t *tally) {
		w.client1(c, deadline, tr, t)
	})
	o.tailQ, o.perSample, o.ops = 0.99, 1, float64(len(o.lat))
	after, err := counters(w.registries()...)
	if err != nil {
		return nil, err
	}
	o.counts = delta(before, after)
	e := o.endToEnd()
	o.named = map[string]metric{
		"read_qps":    {e["ops_per_s"], "1/s"},
		"read_p50_us": {e["p50_ms"] * 1e3, "us"},
		"read_p99_us": {e["tail_ms"] * 1e3, "us"},
	}
	return o, nil
}

// client1 is one closed-loop client cycling through its half of the pool.
func (w *readRouted) client1(c int, deadline time.Time, tr *tracer, t *tally) {
	var buf bytes.Buffer
	i := c * routedPool / routedClients
	for time.Now().Before(deadline) {
		i = (i + 1) % routedPool
		t.attempted++
		req, err := http.NewRequest(http.MethodGet, w.urls[i], nil)
		if err != nil {
			t.failed++
			continue
		}
		resp, lat, err := send(w.client, req, tr, "client.read", w.reqID.Add(1), &buf)
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sky-Epoch") != "1" {
			t.failed++
			continue
		}
		body := buf.Bytes()
		t.lat = append(t.lat, lat)
		t.bytes += len(body)
		t.answers++
		if bytes.Contains(body, emptyIDs) {
			t.empty++
		}
		if want, ok := w.expect[i]; ok {
			got, err := idsOf(body)
			if err != nil || !sameIDs(got, want) {
				t.wrong++
				t.failed++
			}
		}
	}
}

// check compares the sampled queries' expected answers with store.QueryXY
// on the served file, which is what each replica answers from.
func (w *readRouted) check() (int, error) {
	st, err := store.Open(w.path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	wrong := 0
	for i, want := range w.expect {
		q := w.queries[i]
		if !sameIDs(st.QueryXY(q[0], q[1]), want) {
			wrong++
		}
	}
	return wrong, nil
}

func (w *readRouted) layers(spans []span, o *outcome, out map[string]float64) error {
	st, err := store.OpenMmap(w.path)
	if err != nil {
		return err
	}
	defer st.Close()
	qns, ids, empty := queryNs(w.queries, st.QueryXY)
	out["store.query_ns"] = qns
	out["core.result_ids"] = ids
	out["core.empty_share"] = empty
	lns, _, _ := queryNs(w.queries, func(x, y float64) []int32 { st.LocateXY(x, y); return nil })
	out["store.locate_ns"] = lns
	fi, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	out["store.file_bytes"] = float64(fi.Size())

	out["router.self_us"] = medianUs(selfTimes(spans, "router"), nil)
	out["transport.self_us"] = medianUs(selfTimes(spans, "transport"), nil)
	out["transport.client_self_us"] = medianUs(selfTimes(spans, "client.read"), nil)
	out["server.read_self_us"] = medianUs(selfTimes(spans, "server.read"), nil) - qns/1e3
	out["server.resp_bytes"] = o.bytes / o.ops
	out["router.failovers"] = o.counts["skyrouter_failovers_total"]
	out["router.no_replica"] = o.counts["skyrouter_no_replica_total"]
	out["server.shed"] = o.counts["skyserve_shed_total"]
	return buildLayers(w.pts, false, false, func() error {
		_, err := core.BuildQuadrant(w.pts, core.Options{Workers: -1})
		return err
	}, out)
}
