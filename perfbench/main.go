// Command perfbench is the repository's service benchmark. It starts the
// real skyline servers in-process on loopback listeners (server.New,
// store.OpenMmap + server.NewServeFrom, server.BootstrapReplica and
// router.New, with skyserve's and skyrouter's default settings), drives one
// named workload against them for a fixed time, checks the answers, and
// prints one JSON result line:
//
//	perfbench -workload read-routed -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run, which also
// reports the tracing overhead as traced minus untraced. See README.md for
// the workloads and every metric's definition.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix against one in-process deployment.
type workload interface {
	// setup starts the servers from the prepared inputs; setup_s times it.
	setup(tr *tracer) error
	// teardown stops every server and goroutine setup started.
	teardown()
	// load drives traffic for d and reports what it observed.
	load(d time.Duration, tr *tracer) (*outcome, error)
	// check runs the end-of-run answer checks and returns the wrong answers.
	check() (int, error)
	// layers fills the per-layer metrics of a traced load phase.
	layers(spans []span, o *outcome, out map[string]float64) error
}

// outcome is what one load phase observed.
type outcome struct {
	elapsed   time.Duration
	attempted int
	failed    int // non-2xx, transport errors and wrong answers
	wrong     int
	ops       float64 // requests, queries or acked writes completed
	lat       samples // latency of the workload's primary operation
	tailQ     float64 // quantile reported as tail_ms
	// wins are the phase's segments (see runSegments). ops_per_s, p50_ms
	// and tail_ms are taken at the reference machine speed, so a slower
	// CPU does not move them. They are medians of the segments' figures,
	// so a burst of outside interference moves one segment, not the
	// figure; or, when pooled is set, figures of all scaled samples.
	wins      []win
	pooled    bool
	perSample float64 // ops per latency sample
	bytes     float64 // wire bytes attributed to the ops
	answers   int     // answers inspected for emptiness
	empty     int
	// named holds the workload's metrics under their ledger names, with units.
	named map[string]metric
	// counts are registry counter deltas over the phase.
	counts map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// win is one load segment.
type win struct {
	elapsed time.Duration
	lat     samples
	speed   float64 // machine speed around the segment; 1 is the reference
}

// endToEnd maps an outcome to the metrics every workload reports.
func (o *outcome) endToEnd() map[string]float64 {
	e := map[string]float64{"bytes_per_op": o.bytes / o.ops}
	e["ops_per_s"], e["p50_ms"], e["tail_ms"] = o.timings(true)
	return e
}

// timings returns throughput, median and tail latency, at the reference
// machine speed when calibrated is set.
func (o *outcome) timings(calibrated bool) (rate, p50, tail float64) {
	var rates, p50s, tails []float64
	var ops float64
	var pool samples
	for _, w := range o.wins {
		speed := 1.0
		if calibrated {
			speed = w.speed
		}
		lat := make(samples, len(w.lat))
		for i, l := range w.lat {
			lat[i] = time.Duration(float64(l) * speed)
		}
		ops += float64(len(lat)) * o.perSample / speed
		pool = append(pool, lat...)
		rates = append(rates, float64(len(lat))*o.perSample/w.elapsed.Seconds()/speed)
		if len(lat) == 0 {
			// A segment with no completion stalled for its whole length.
			lat = samples{w.elapsed}
		}
		p50s = append(p50s, lat.quantile(0.50))
		tails = append(tails, lat.quantile(o.tailQ))
	}
	if o.pooled {
		return ops / o.elapsed.Seconds(), pool.quantile(0.50), pool.quantile(o.tailQ)
	}
	return median(rates), median(p50s), median(tails)
}

var e2eUnits = map[string]string{
	"setup_s": "s", "heap_mb": "MB", "ops_per_s": "1/s",
	"p50_ms": "ms", "tail_ms": "ms", "bytes_per_op": "B",
}

const (
	setups = 3               // set-ups per run; setup_s is their median
	warmup = 1 * time.Second // load before measuring, discarded
)

func main() {
	name := flag.String("workload", "", "read-routed | read-batch | write-durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured load time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under .bench_build/perfbench")
	flag.Parse()

	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, measure time.Duration, traced bool, root string) error {
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var w workload
	switch name {
	case "read-routed":
		w, err = newReadRouted(seed, dir)
	case "read-batch":
		w, err = newReadBatch(seed)
	case "write-durable":
		w, err = newWriteDurable(seed, dir)
	default:
		return fmt.Errorf("unknown workload %q (want read-routed, read-batch or write-durable)", name)
	}
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up times are scaled to the reference machine speed like the load
	// phases' timings, with a calibration slice before and after each.
	setupTimes := make([]float64, setups)
	rawSetup := make([]float64, setups)
	speed := machineSpeed()
	for i := range setupTimes {
		if i > 0 {
			w.teardown()
		}
		// In a traced run the last set-up records its phase spans.
		tr.setOn(traced && i == setups-1)
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			w.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		rawSetup[i] = time.Since(t0).Seconds()
		next := machineSpeed()
		setupTimes[i], speed = rawSetup[i]*(speed+next)/2, next
	}
	tr.setOn(false)
	defer w.teardown()
	heap := heapMB()

	if _, err := w.load(warmup, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var o, plain *outcome
	layers := map[string]float64{}
	if !traced {
		if o, err = w.load(measure, nil); err != nil {
			return err
		}
	} else {
		// Untraced and traced halves on the same deployment: their
		// difference is the tracing overhead.
		if plain, err = w.load(measure/2, tr); err != nil {
			return err
		}
		tr.setOn(true)
		o, err = w.load(measure/2, tr)
		tr.setOn(false)
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		if err := w.layers(spans, o, layers); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		setupLayers(spans, layers)
		te, pe := o.endToEnd(), plain.endToEnd()
		for k := range te {
			layers["overhead."+k] = te[k] - pe[k]
		}
		layers["overhead.setup_s"] = setupTimes[setups-1] - median(setupTimes[:setups-1])
		layers["overhead.heap_mb"] = tr.heldMB()
		if err := writeSpans(filepath.Join(base, "trace-"+name+".csv"), spans); err != nil {
			return err
		}
	}

	if o.ops == 0 {
		return fmt.Errorf("no operation succeeded (%d attempted, %d failed)", o.attempted, o.failed)
	}
	wrong, err := w.check()
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	o.wrong += wrong
	o.failed += wrong

	e2e := o.endToEnd()
	e2e["setup_s"] = median(setupTimes)
	e2e["heap_mb"] = heap
	emptyShare := float64(o.empty) / float64(max(o.answers, 1))
	correct := o.wrong == 0 && o.answers > 0 && emptyShare <= 0.5

	o.named["uncalibrated.setup_s"] = metric{median(rawSetup), "s"}
	printRecord(name, seed, traced, root, e2e, o, emptyShare, correct)

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if !traced {
		for k, v := range e2e {
			res.Metrics[k] = metric{v, e2eUnits[k]}
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// heapMB is the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// setupLayers turns the traced set-up's phase spans into setup.<phase>_ms.
func setupLayers(spans []span, out map[string]float64) {
	for _, s := range spans {
		if s.parent == "setup" {
			out[s.name+"_ms"] += ms(s.dur())
		}
	}
}

// printRecord prints the run record: the environment the numbers came
// from, every metric under its ledger name, and per-timing sample counts.
func printRecord(name string, seed int64, traced bool, root string,
	e2e map[string]float64, o *outcome, emptyShare float64, correct bool) {
	named := map[string]metric{
		"setup_s":     {e2e["setup_s"], "s"},
		"heap_mb":     {e2e["heap_mb"], "MB"},
		"error_rate":  {float64(o.failed) / float64(max(o.attempted, 1)), "ratio"},
		"empty_share": {emptyShare, "ratio"},
		// Closed-loop generators are never late; write-durable's open-loop
		// reader overrides this.
		"loadgen.lag_ms": {0, "ms"},
	}
	for k, v := range o.named {
		named[k] = v
	}
	var speeds []float64
	for _, w := range o.wins {
		speeds = append(speeds, w.speed)
	}
	rate, p50, tail := o.timings(false)
	named["machine_speed"] = metric{median(speeds), "ratio"}
	named["uncalibrated.ops_per_s"] = metric{rate, "1/s"}
	named["uncalibrated.p50_ms"] = metric{p50, "ms"}
	named["uncalibrated.tail_ms"] = metric{tail, "ms"}
	rec := map[string]interface{}{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"commit":     gitHead(root),
		"tree":       treeHash(root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"correct":    correct,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"wrong":      o.wrong,
		"samples":    len(o.lat),
		"metrics":    named,
	}
	out, err := json.Marshal(map[string]interface{}{"run": rec})
	if err == nil {
		fmt.Println(string(out))
	}
}

// gitHead returns the checked-out commit when root is a git work tree.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(strings.TrimPrefix(ref, "ref: "))))
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(id))
}

// treeHash fingerprints the Go sources the benchmark was built from, so a
// record identifies its code even outside a git checkout.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
