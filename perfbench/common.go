package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/server"
)

// serverConfig is skyserve's default configuration, flag for flag.
func serverConfig() server.Config {
	return server.Config{
		MaxDynamicPoints: 128,
		MaxBatch:         8192,
		Workers:          -1,
		MaxInFlight:      server.DefaultMaxInFlight,
		MaxQueue:         server.DefaultMaxQueue,
		UpdateWait:       server.DefaultUpdateWait,
		MaxCoalesce:      server.DefaultMaxCoalesce,
		CompactRatio:     server.DefaultCompactRatio,
		CheckpointBytes:  server.DefaultCheckpointBytes,
	}
}

// skyserveStack puts api behind the same layers cmd/skyserve does: the
// readiness gate and the 15s request timeout.
func skyserveStack(api http.Handler) http.Handler {
	gate := server.NewGate()
	gate.Ready(http.TimeoutHandler(api, 15*time.Second, `{"error":"request timed out"}`))
	root := http.NewServeMux()
	root.Handle("/", gate)
	return root
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	if l == nil {
		return
	}
	l.srv.Close()
	<-l.done
}

// newClient returns a load client holding at most two connections per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns status, headers and body.
func get(c *http.Client, url string) (int, http.Header, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// rankPoints generates n 2-D points and replaces each coordinate with its
// rank, so the data's extent is [0,n)² in general position.
func rankPoints(dist dataset.Distribution, n int, seed int64) ([]geom.Point, error) {
	pts, err := dataset.Generate(dataset.Config{N: n, Dim: 2, Dist: dist, Seed: seed})
	if err != nil {
		return nil, err
	}
	return dataset.GeneralPosition(pts), nil
}

// offLine draws a coordinate uniformly over [0,n), kept 0.05 away from the
// integer grid lines and the half-integer bisector lines of rank data, so
// the exact answer never depends on tie-breaking at a boundary.
func offLine(rng *rand.Rand, n int) float64 {
	return float64(rng.Intn(n)) + 0.05 + 0.4*rng.Float64() + 0.5*float64(rng.Intn(2))
}

// oracle answers a query of the given kind by brute force.
func oracle(kind string, pts []geom.Point, x, y float64) []int32 {
	q := geom.Pt2(-1, x, y)
	var res []geom.Point
	switch kind {
	case "quadrant":
		res = core.QuadrantSkyline(pts, q)
	case "global":
		res = core.GlobalSkyline(pts, q)
	default:
		res = core.DynamicSkyline(pts, q)
	}
	ids := make([]int32, len(res))
	for i, p := range res {
		ids[i] = int32(p.ID)
	}
	return sortedIDs(ids)
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int32) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// emptyIDs marks an empty answer in single and batch response bodies.
var emptyIDs = []byte(`"ids":[]`)

// idsOf decodes the ids of a single-query response body.
func idsOf(body []byte) ([]int32, error) {
	var r struct {
		IDs []int32 `json:"ids"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.IDs, nil
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// tally is one load generator's count of what it sent and saw.
type tally struct {
	lat                                      samples
	attempted, failed, wrong, empty, answers int
	bytes                                    int
}

// closedLoop runs n closed-loop clients (each sends its next request only
// once the previous answer has arrived) for about d in all, in one-second
// segments between calibration slices, and merges their tallies.
func closedLoop(n int, d time.Duration, client func(c int, deadline time.Time, t *tally)) *outcome {
	o := &outcome{}
	o.runSegments(d, time.Second, func(_, deadline time.Time) samples {
		ts := make([]tally, n)
		var wg sync.WaitGroup
		for c := range ts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, deadline, &ts[c])
			}(c)
		}
		wg.Wait()
		var lat samples
		for _, t := range ts {
			lat = append(lat, t.lat...)
			o.attempted += t.attempted
			o.failed += t.failed
			o.wrong += t.wrong
			o.empty += t.empty
			o.answers += t.answers
			o.bytes += float64(t.bytes)
		}
		return lat
	})
	return o
}

// send makes one request inside a client span, reads the whole body into
// buf and closes it, and returns the response and its latency.
func send(c *http.Client, req *http.Request, tr *tracer, span string, id uint64, buf *bytes.Buffer) (*http.Response, time.Duration, error) {
	if tr.active() {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	done := tr.begin(span, "", id)
	defer done()
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, time.Since(t0), err
}

// samples is a set of latencies.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile, in ms.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	i = max(0, min(i, len(c)-1))
	return ms(c[i])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of plain values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// counters reads every series of the registries' Prometheus exposition,
// summed across registries; histograms contribute their _sum and _count.
func counters(regs ...*metrics.Registry) (map[string]float64, error) {
	out := map[string]float64{}
	for _, reg := range regs {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			return nil, err
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			out[line[:i]] += v
		}
	}
	return out, nil
}

// delta returns after[k] - before[k] for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// timeIt runs f reps times and returns the median wall time of one call.
func timeIt(reps int, f func() error) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return medianDur(d), nil
}
