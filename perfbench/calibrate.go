package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The CPUs of a small shared machine change speed by 10-20% from one
// minute to the next (neighbours' load, frequency), with the process's CPU
// time unchanged, so a raw throughput differs between runs of identical
// code by more than any bound worth having. Load phases therefore run in
// segments and time a fixed, stdlib-only task in the pauses between them.
// A segment's timings are scaled by the machine speed measured on either
// side of it, and reported at the reference speed. The task uses none of
// the repository's code, so a change to the program cannot move the scale.
const (
	calSlice   = 250 * time.Millisecond // length of one calibration slice
	refPerCore = 13000.0                // calibration tasks per second per P at speed 1
)

// calRecord is the calibration task's JSON document, shaped like a small
// batch request.
type calRecord struct {
	Kind    string       `json:"kind"`
	Queries [][2]float64 `json:"queries"`
}

var calDoc = func() calRecord {
	r := calRecord{Kind: "quadrant"}
	for i := 0; i < 64; i++ {
		r.Queries = append(r.Queries, [2]float64{float64(i) + 0.25, 1.5*float64(i) + 0.125})
	}
	return r
}()

// machineSpeed runs the calibration task on GOMAXPROCS goroutines for
// calSlice and returns its rate per P, relative to refPerCore.
func machineSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(calSlice)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				for k := 0; k < 8; k++ {
					b, err := json.Marshal(calDoc)
					var r calRecord
					if err != nil || json.Unmarshal(b, &r) != nil || len(r.Queries) != len(calDoc.Queries) {
						panic("calibration task failed")
					}
				}
				done.Add(8)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds() / float64(procs) / refPerCore
}

// runSegments drives load in segments of length seg, about d in all
// (at least one segment), with a calibration slice before and after each.
// load runs one segment until deadline and returns the latencies of the
// operations it completed. The segments are recorded in o.wins, o.lat and
// o.elapsed.
func (o *outcome) runSegments(d, seg time.Duration, load func(start, deadline time.Time) samples) {
	seg = min(seg, d)
	speed := machineSpeed()
	for k := max(1, int((d-calSlice)/(seg+calSlice))); k > 0; k-- {
		start := time.Now()
		w := win{lat: load(start, start.Add(seg))}
		w.elapsed = time.Since(start)
		next := machineSpeed()
		w.speed, speed = (speed+next)/2, next
		o.wins = append(o.wins, w)
		o.lat = append(o.lat, w.lat...)
		o.elapsed += w.elapsed
	}
}
