package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dyndiag"
	"repro/internal/geom"
)

// openInMemory opens the file at path through New over a copy of its bytes —
// the store Open falls back to where mapping is unavailable.
func openInMemory(t *testing.T, path string) *Store {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMmapServesIdenticalAnswers: a mapped store must answer exactly like
// an in-memory store over the same bytes on every cell, Query, and QueryXY —
// and on this platform it must actually be mapped, not silently falling
// back.
func TestMmapServesIdenticalAnswers(t *testing.T) {
	d := buildDiagram(t, 60, 61)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	mem := openInMemory(t, path)
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() || mem.Mapped() {
		t.Fatalf("Mapped: Open %v, New %v; want true, false", mm.Mapped(), mem.Mapped())
	}
	if mm.Kind() != "quadrant" {
		t.Fatalf("Kind = %q, want quadrant", mm.Kind())
	}
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			a, err := mem.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mm.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !equalI32(a, b) || !equalI32(a, d.Cell(i, j)) {
				t.Fatalf("cell (%d,%d): in-memory %v, mmap %v, diagram %v", i, j, a, b, d.Cell(i, j))
			}
		}
	}
	for k := 0; k < 200; k++ {
		q := geom.Pt2(-1, float64(k%101), float64((k*37)%103))
		want, err := mem.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mm.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalI32(got, want) {
			t.Fatalf("query %d: in-memory %v, mmap %v", k, want, got)
		}
		if got := mm.QueryXY(q.X(), q.Y()); !equalI32(got, want) {
			t.Fatalf("QueryXY %d: mmap %v, want %v", k, got, want)
		}
	}
}

// TestMmapQueryXYZeroAllocs pins the mapped hot path: point location via the
// rank tables plus a label load from the map allocates nothing.
func TestMmapQueryXYZeroAllocs(t *testing.T) {
	d := buildDiagram(t, 80, 67)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() {
		t.Skip("mmap unavailable")
	}
	allocs := testing.AllocsPerRun(300, func() {
		mm.QueryXY(13.7, 91.2)
		mm.QueryXY(-5, 4)
		mm.QueryXY(1e9, 1e9)
	})
	if allocs != 0 {
		t.Fatalf("mapped QueryXY: %v allocs/op, want 0", allocs)
	}
}

// TestMmapDynamicKind: the dynamic-kind store serves identically mapped.
func TestMmapDynamicKind(t *testing.T) {
	pts := buildDiagram(t, 10, 71).Points
	d, err := dyndiag.BuildScanning(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.sky")
	if err := CreateFileDynamic(path, d); err != nil {
		t.Fatal(err)
	}
	rd := openInMemory(t, path)
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if mm.Kind() != "dynamic" || rd.Kind() != "dynamic" {
		t.Fatalf("Kind = %q, want dynamic", mm.Kind())
	}
	for k := 0; k < 300; k++ {
		x, y := float64(k%113)*0.9, float64((k*41)%127)*0.8
		a, err := rd.Query(geom.Pt2(-1, x, y))
		if err != nil {
			t.Fatal(err)
		}
		if b := mm.QueryXY(x, y); !equalI32(a, b) {
			t.Fatalf("dynamic query (%v,%v): in-memory %v, mmap %v", x, y, a, b)
		}
	}
}

// TestMmapEquivalenceOverCorruptionMatrix runs the mapped path (Open) and
// the in-memory path (New over the same bytes) against the torn-write and
// bit-rot matrix: for every truncation point and every probed single-byte
// flip both must reach the same accept/reject verdict — mapped serving must
// not widen the corruption acceptance surface by a single byte.
func TestMmapEquivalenceOverCorruptionMatrix(t *testing.T) {
	gen := buildDiagram(t, 15, 73)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(name string, b []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		sm, merr := Open(p)
		_, nerr := New(append([]byte(nil), b...))
		if (merr == nil) != (nerr == nil) {
			t.Fatalf("%s: Open err %v, New err %v — verdicts diverge", name, merr, nerr)
		}
		if sm != nil {
			sm.Close()
		}
	}

	// Torn writes: every ~97th truncation point.
	stride := len(raw)/97 + 1
	for cut := 0; cut < len(raw); cut += stride {
		check(fmt.Sprintf("cut%d.sky", cut), raw[:cut])
	}
	// Bit rot: every ~101st offset plus the structural landmarks.
	stride = len(raw)/101 + 1
	offsets := []int{0, 8, 11, headerSize, len(raw) - trailerSize, len(raw) - 1}
	for off := stride; off < len(raw); off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		rotted := append([]byte(nil), raw...)
		rotted[off] ^= 0x01
		check(fmt.Sprintf("rot%d.sky", off), rotted)
	}
	// The pristine file must open in both modes.
	check("pristine.sky", raw)
}

// TestOpenMmapErrorPathsDoNotLeakFDs extends the fd-leak audit to the mapped
// path, through its OpenMmap name: every rejection (corrupt header, bad
// trailer, truncation) must unmap and close on the way out.
func TestOpenMmapErrorPathsDoNotLeakFDs(t *testing.T) {
	d := buildDiagram(t, 20, 79)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sky")
	if err := CreateFile(good, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.sky")
	rotted := append([]byte(nil), raw...)
	rotted[len(rotted)/2] ^= 0x01
	if err := os.WriteFile(bad, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.sky")
	if err := os.WriteFile(short, raw[:headerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	for i := 0; i < 200; i++ {
		if _, err := OpenMmap(bad); err == nil {
			t.Fatal("corrupt file mapped cleanly")
		}
		if _, err := OpenMmap(short); err == nil {
			t.Fatal("truncated file mapped cleanly")
		}
		if _, err := OpenMmap(filepath.Join(dir, "missing.sky")); err == nil {
			t.Fatal("missing file mapped cleanly")
		}
	}
	// Successful opens must also release everything on Close.
	for i := 0; i < 50; i++ {
		s, err := OpenMmap(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(t); after > before+2 {
		t.Fatalf("fd leak: %d open before, %d after", before, after)
	}
}
