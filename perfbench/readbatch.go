package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
)

// read-batch: two closed-loop clients send /v1/skyline/batch requests of
// 256 queries each straight to a builder's in-memory diagrams (n=128,
// anti-correlated, so all three kinds are built). The kind rotates
// quadrant -> global -> dynamic per request. Batching spreads the
// per-request cost, so body decode, per-query encode and core lookups do
// the work.
const (
	batchN       = 128
	batchClients = 2
	batchSize    = 256
	batchBodies  = 16 // distinct bodies per kind, cycled
	batchChecked = 8  // every batchChecked-th request is answer-checked
)

var kinds = []string{"quadrant", "global", "dynamic"}

// batchBody is one prepared request.
type batchBody struct {
	kind    string
	queries [][2]float64
	body    []byte
	expect  [][]int32 // oracle answer of every query
}

type readBatch struct {
	pts    []geom.Point
	bodies [][]batchBody // by kind index

	h      *server.Handler
	srv    *listener
	client *http.Client
	reqID  atomic.Uint64
}

func newReadBatch(seed int64) (*readBatch, error) {
	pts, err := rankPoints(dataset.AntiCorrelated, batchN, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	w := &readBatch{pts: pts, bodies: make([][]batchBody, len(kinds))}
	for k, kind := range kinds {
		for b := 0; b < batchBodies; b++ {
			bb := batchBody{kind: kind}
			var sb strings.Builder
			sb.WriteString(`{"kind":"` + kind + `","queries":[`)
			for i := 0; i < batchSize; i++ {
				q := [2]float64{offLine(rng, batchN), offLine(rng, batchN)}
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString("[" + fmtCoord(q[0]) + "," + fmtCoord(q[1]) + "]")
				bb.queries = append(bb.queries, q)
				bb.expect = append(bb.expect, oracle(kind, pts, q[0], q[1]))
			}
			sb.WriteString("]}")
			bb.body = []byte(sb.String())
			w.bodies[k] = append(w.bodies[k], bb)
		}
	}
	return w, nil
}

func (w *readBatch) setup(tr *tracer) error {
	done := tr.begin("setup.build", "setup", 0)
	h, err := server.New(w.pts, serverConfig())
	done()
	if err != nil {
		return err
	}
	w.h = h
	done = tr.begin("setup.serve", "setup", 0)
	var api http.Handler = h
	if tr != nil {
		api = tr.handler("server.batch", "client.batch", h)
	}
	w.srv, err = listen(skyserveStack(api))
	done()
	if err != nil {
		return err
	}
	done = tr.begin("setup.ready", "setup", 0)
	defer done()
	w.client = newClient()
	code, hdr, _, err := get(w.client, w.srv.url+"/v1/health")
	if err != nil {
		return err
	}
	if code != http.StatusOK || hdr.Get("X-Sky-Epoch") != "1" {
		return fmt.Errorf("builder health: status %d epoch %q", code, hdr.Get("X-Sky-Epoch"))
	}
	return nil
}

func (w *readBatch) teardown() {
	w.srv.close()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.srv, w.client, w.h = nil, nil, nil
}

func (w *readBatch) load(d time.Duration, tr *tracer) (*outcome, error) {
	before, err := counters(w.h.Metrics())
	if err != nil {
		return nil, err
	}
	o := closedLoop(batchClients, d, func(c int, deadline time.Time, t *tally) {
		w.client1(c, deadline, tr, t)
	})
	o.tailQ, o.perSample, o.ops = 0.99, batchSize, float64(len(o.lat)*batchSize)
	after, err := counters(w.h.Metrics())
	if err != nil {
		return nil, err
	}
	o.counts = delta(before, after)
	e := o.endToEnd()
	o.named = map[string]metric{
		"batch_queries_per_s": {e["ops_per_s"], "1/s"},
		"batch_p99_ms":        {e["tail_ms"], "ms"},
	}
	return o, nil
}

// client1 is one closed-loop client. Client c sends request r of body
// (c + batchClients*r) mod pool, so the kinds rotate per request.
func (w *readBatch) client1(c int, deadline time.Time, tr *tracer, t *tally) {
	var buf bytes.Buffer
	url := w.srv.url + "/v1/skyline/batch"
	for r := 0; time.Now().Before(deadline); r++ {
		n := c + batchClients*r
		bb := &w.bodies[n%len(kinds)][(n/len(kinds))%batchBodies]
		t.attempted++
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bb.body))
		if err != nil {
			t.failed++
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, lat, err := send(w.client, req, tr, "client.batch", w.reqID.Add(1), &buf)
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sky-Epoch") != "1" {
			t.failed++
			continue
		}
		body := buf.Bytes()
		t.lat = append(t.lat, lat)
		t.bytes += len(body)
		t.answers += batchSize
		t.empty += bytes.Count(body, emptyIDs)
		if r%batchChecked == 0 && !w.answersMatch(bb, body) {
			t.wrong++
			t.failed++
		}
	}
}

// answersMatch compares a batch response with the oracle answers.
func (w *readBatch) answersMatch(bb *batchBody, body []byte) bool {
	var resp struct {
		Kind    string `json:"kind"`
		Results []struct {
			IDs []int32 `json:"ids"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Kind != bb.kind || len(resp.Results) != len(bb.expect) {
		return false
	}
	for i, r := range resp.Results {
		if !sameIDs(r.IDs, bb.expect[i]) {
			return false
		}
	}
	return true
}

// check has nothing left to compare: read-batch checks its answers against
// the oracles while the load runs.
func (w *readBatch) check() (int, error) { return 0, nil }

func diagramOf(set *core.DiagramSet, kind string) core.Diagram {
	switch kind {
	case "quadrant":
		return set.Quadrant
	case "global":
		return set.Global
	}
	return set.Dynamic
}

func (w *readBatch) layers(spans []span, o *outcome, out map[string]float64) error {
	set, err := core.BuildSet(w.pts, updateOpts())
	if err != nil {
		return err
	}
	// Replay every kind's queries through core; the per-query self time of a
	// batch request is its handler span minus its kind's core lookups.
	perKindNs := map[string]float64{}
	var ids, empty float64
	for k, kind := range kinds {
		var qs [][2]float64
		for _, bb := range w.bodies[k] {
			qs = append(qs, bb.queries...)
		}
		ns, n, e := queryNs(qs, diagramOf(set, kind).QueryXY)
		perKindNs[kind] = ns
		out["core.query_ns."+kind] = ns
		ids += n / float64(len(kinds))
		empty += e / float64(len(kinds))
	}
	out["core.result_ids"] = ids
	out["core.empty_share"] = empty
	// Request r of client c used kind (c + 2r) mod 3; spans carry only the
	// request id, so attribute the core time by the mean over kinds.
	var meanNs float64
	for _, ns := range perKindNs {
		meanNs += ns / float64(len(kinds))
	}
	self := medianUs(selfTimes(spans, "server.batch"), nil)
	out["server.batch_self_us_per_query"] = (self - meanNs*batchSize/1e3) / batchSize
	out["transport.client_self_us"] = medianUs(selfTimes(spans, "client.batch"), nil)
	out["server.shed"] = o.counts["skyserve_shed_total"]
	data, err := canonicalBytes(set, startingEpoch)
	if err != nil {
		return err
	}
	out["store.file_bytes"] = float64(len(data))
	return buildLayers(w.pts, true, true, func() error {
		_, err := core.BuildSet(w.pts, updateOpts())
		return err
	}, out)
}
