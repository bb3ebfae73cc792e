package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Tracing. Spans are recorded only from the benchmark's own code, around
// calls into each layer's public surface: the client call, the router's
// ServeHTTP, the router's outgoing RoundTrip (the loopback transport), and
// the replica or builder Handler.ServeHTTP. One request's spans share the
// id the client puts in reqHeader; the router hop carries it through the
// request context, and the traced RoundTripper re-attaches it as a header
// for the replica. Spans stay in memory and are written out when the run
// ends.

// reqHeader carries the benchmark's request id from hop to hop.
const reqHeader = "X-Bench-Req"

type reqKey struct{}

type span struct {
	name, parent string
	req          uint64
	start, end   int64 // ns since the tracer's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// setOn turns span recording on or off; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, parent string, req uint64) func() {
	if !t.active() {
		return func() {}
	}
	start := time.Since(t.epoch)
	return func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{name, parent, req, int64(start), int64(end)})
		t.mu.Unlock()
	}
}

// handler wraps next in a span named name whose parent is the caller's
// span, correlated by the request-id header. The id also goes into the
// request context, where the router's outgoing requests pick it up.
func (t *tracer) handler(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id == 0 || !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		done := t.begin(name, parent, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		done()
	})
}

// transport is the RoundTripper injected as router.Config.HTTPClient's
// transport. Its span covers the round trip until the router has read and
// closed the response body.
type transport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(reqKey{}).(uint64)
	if id == 0 || !tt.t.active() {
		return tt.next.RoundTrip(req)
	}
	done := tt.t.begin("transport", "router", id)
	out := req.Clone(req.Context())
	out.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// heldMB is the memory the span buffer holds, in MB: tracing's own heap
// cost.
func (t *tracer) heldMB() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(cap(t.spans)) * float64(unsafe.Sizeof(span{})) / 1e6
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its children (spans of the same request
// whose parent is name), keyed by request id.
func selfTimes(spans []span, name string) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent == name {
			children[s.req] = append(children[s.req], s)
		}
	}
	out := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.name == name {
			out[s.req] = s.dur() - covered(s, children[s.req])
		}
	}
	return out
}

// medianUs is the median of the times whose request id keep accepts (all
// when keep is nil), in µs.
func medianUs(times map[uint64]time.Duration, keep func(uint64) bool) float64 {
	var d []time.Duration
	for id, t := range times {
		if keep == nil || keep(id) {
			d = append(d, t)
		}
	}
	return float64(medianDur(d)) / 1e3
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, end int64 = 0, s.start
	for _, k := range kids {
		lo, hi := max(k.start, end), min(k.end, s.end)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes every span as CSV (name,parent,req,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,parent,req,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", s.name, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
