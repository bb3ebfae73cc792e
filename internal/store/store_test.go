package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/quaddiag"
)

func buildDiagram(t testing.TB, n int, seed int64) *quaddiag.Diagram {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, rng.Float64()*100, rng.Float64()*100)
	}
	pts = dataset.GeneralPosition(pts)
	d, err := quaddiag.BuildScanning(pts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTripQueries(t *testing.T) {
	d := buildDiagram(t, 60, 1)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != d.Grid.NumCells() {
		t.Fatalf("NumCells = %d, want %d", s.NumCells(), d.Grid.NumCells())
	}
	if len(s.Points()) != len(d.Points) {
		t.Fatal("points lost")
	}
	// Every cell matches.
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			want := d.Cell(i, j)
			if len(got) != len(want) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("cell (%d,%d): %v vs %v", i, j, got, want)
				}
			}
		}
	}
	// Random point queries match the in-memory diagram.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt2(-1, rng.Float64()*140-20, rng.Float64()*140-20)
		got, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := d.Query(q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: %v vs %v", q, got, want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := buildDiagram(t, 25, 3)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Query(geom.Pt2(-1, 10.5, 10.5))
	if err != nil {
		t.Fatal(err)
	}
	want := d.Query(geom.Pt2(-1, 10.5, 10.5))
	if len(got) != len(want) {
		t.Fatalf("file query %v, want %v", got, want)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.sky")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// reseal recomputes the whole-file trailer CRC of b in place, so a test can
// reach the checks behind it.
func reseal(b []byte) {
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-trailerSize]))
}

// pagesOffset returns the label-page section offset declared in a header.
func pagesOffset(b []byte) int { return int(binary.BigEndian.Uint64(b[52:])) }

// setLabel returns a copy of raw with cell's label set to l and both the
// page's CRC in the index and the trailer recomputed to match: damage no
// checksum can see.
func setLabel(raw []byte, cell int, l uint32) []byte {
	be := binary.BigEndian
	b := append([]byte(nil), raw...)
	pagesOff, indexOff := pagesOffset(b), int(be.Uint64(b[44:]))
	be.PutUint32(b[pagesOff+4*cell:], l)
	pg := cell / CellsPerPage
	page := b[pagesOff+pg*4*CellsPerPage : pagesOff+(pg+1)*4*CellsPerPage]
	be.PutUint32(b[indexOff+pg*indexEntrySz+12:], crc32.ChecksumIEEE(page))
	reseal(b)
	return b
}

func TestCorruptionDetected(t *testing.T) {
	d := buildDiagram(t, 40, 4)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}

	// Flip one byte inside the last label page: the full-file trailer
	// checksum catches it at open...
	lastPage := pagesOffset(raw) + (d.Grid.NumCells()-1)/CellsPerPage*4*CellsPerPage
	bad = append([]byte(nil), raw...)
	bad[lastPage+1] ^= 0x01
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: want ErrCorrupt at open, got %v", err)
	}
	// ...and with the trailer recomputed over the damage, the page's own
	// CRC in the index still does.
	reseal(bad)
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted page under a valid trailer: want ErrCorrupt from its checksum, got %v", err)
	}

	// Flip one byte in the arena section: its own checksum catches it at
	// open even under a valid trailer.
	arenaOff := lastPage + 4*CellsPerPage
	bad = append([]byte(nil), raw...)
	bad[arenaOff+9] ^= 0x01 // first offsets word
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted arena: want ErrCorrupt at open, got %v", err)
	}
	reseal(bad)
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted arena under a valid trailer: want ErrCorrupt at open, got %v", err)
	}

	// Truncated file: the header or the trailer is gone.
	if _, err := New(raw[:40]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: want ErrCorrupt, got %v", err)
	}
	if _, err := New(raw[:len(raw)-8]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: want ErrCorrupt, got %v", err)
	}
}

// TestOutOfRangeLabelRejected: a label page whose checksums all agree but
// which names a result the arena does not hold (or pads with anything but
// noCell) is corrupt. Without the label check at open, such a file opened and
// answered the damaged cell with an empty skyline.
func TestOutOfRangeLabelRejected(t *testing.T) {
	d := buildDiagram(t, 40, 4)
	if d.Grid.NumCells()%CellsPerPage == 0 {
		t.Fatal("test needs padding in the last page")
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	be := binary.BigEndian
	arenaOff := pagesOffset(raw) + int(be.Uint64(raw[36:]))*4*CellsPerPage
	for _, c := range []struct {
		name  string
		cell  int
		label uint32
	}{
		{"real cell", 0, be.Uint32(raw[arenaOff:]) + 7}, // #results + 7
		{"padding", d.Grid.NumCells(), 0},               // a valid label where noCell belongs
	} {
		name, bad := c.name, setLabel(raw, c.cell, c.label)
		path := filepath.Join(t.TempDir(), "bad.sky")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				s.Close()
			}
			t.Fatalf("%s: out-of-range label: want ErrCorrupt, got %v", name, err)
		}
		if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: out-of-range label: want ErrCorrupt from New, got %v", name, err)
		}
	}
}

func TestCellRangeErrors(t *testing.T) {
	d := buildDiagram(t, 10, 5)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cell(-1, 0); err == nil {
		t.Fatal("negative index must fail")
	}
	if _, err := s.Cell(s.cols, 0); err == nil {
		t.Fatal("overflow index must fail")
	}
}

func TestConcurrentReaders(t *testing.T) {
	d := buildDiagram(t, 50, 6)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				q := geom.Pt2(-1, rng.Float64()*120-10, rng.Float64()*120-10)
				got, err := s.Query(q)
				if err != nil {
					errs <- err
					return
				}
				want := d.Query(q)
				if len(got) != len(want) {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyDiagramRejected(t *testing.T) {
	// A diagram always has at least one cell, but Write guards anyway.
	var buf bytes.Buffer
	d, err := quaddiag.BuildBaseline(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, d); err != nil {
		t.Fatal(err) // one empty cell is fine
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Cell(0, 0)
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty diagram cell = %v, %v", ids, err)
	}
}

func TestDynamicStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 12)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(24)), float64(rng.Intn(24)))
	}
	d, err := dyndiag.BuildScanning(pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDynamic(&buf, d); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != d.Sub.NumSubcells() {
		t.Fatalf("NumCells = %d, want %d", s.NumCells(), d.Sub.NumSubcells())
	}
	for trial := 0; trial < 400; trial++ {
		q := geom.Pt2(-1, rng.Float64()*30-3, rng.Float64()*30-3)
		got, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := d.Query(q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: %v vs %v", q, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("q=%v: %v vs %v", q, got, want)
			}
		}
	}
}

func TestCorruptHeaderCountsRejectedBeforeAllocation(t *testing.T) {
	d := buildDiagram(t, 30, 9)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Every mutation is resealed under a valid trailer, so the structural
	// checks behind the checksum are what must reject it.
	be := binary.BigEndian
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		mutate(b)
		reseal(b)
		return b
	}

	// A header claiming 2^40 points would allocate ~24 TB; it must instead
	// be rejected against the file size before any buffer is sized from it.
	// (If this regresses, the test OOMs rather than failing politely — that
	// is the point.)
	huge := corrupt(func(b []byte) { be.PutUint64(b[16:], 1<<40) })
	if _, err := New(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge numPoints: want ErrCorrupt, got %v", err)
	}

	// Huge cols/rows imply a huge page index; reject before allocating it.
	hugeGrid := corrupt(func(b []byte) {
		be.PutUint32(b[24:], 1<<20)
		be.PutUint32(b[28:], 1<<20)
		be.PutUint64(b[36:], (1<<40+CellsPerPage-1)/CellsPerPage)
	})
	if _, err := New(hugeGrid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge grid: want ErrCorrupt, got %v", err)
	}

	// Page count inconsistent with cols*rows.
	badPages := corrupt(func(b []byte) { be.PutUint64(b[36:], 1<<30) })
	if _, err := New(badPages); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inconsistent page count: want ErrCorrupt, got %v", err)
	}

	// Index or page offsets pointing anywhere but where the writer puts them.
	badIndex := corrupt(func(b []byte) { be.PutUint64(b[44:], uint64(len(raw))) })
	if _, err := New(badIndex); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range index offset: want ErrCorrupt, got %v", err)
	}
	badPagesOff := corrupt(func(b []byte) { be.PutUint64(b[52:], be.Uint64(b[52:])+4) })
	if _, err := New(badPagesOff); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("shifted page offset: want ErrCorrupt, got %v", err)
	}

	// The unmodified file still opens.
	if _, err := New(raw); err != nil {
		t.Fatal(err)
	}
}

// TestUnsupportedVersionsRejected: only version 4 opens. Earlier formats
// (cell-payload pages in 1 and 2, the epoch-less header of 3) and unknown
// later ones are refused as unsupported, not misread as version 4.
func TestUnsupportedVersionsRejected(t *testing.T) {
	d := buildDiagram(t, 20, 11)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 2, 3, 5} {
		b := append([]byte(nil), buf.Bytes()...)
		binary.BigEndian.PutUint32(b[8:], v)
		reseal(b)
		_, err := New(b)
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: want an unsupported-version error, got %v", v, err)
		}
	}
}

// TestConcurrentDistinctPages hammers a mapped store from many goroutines
// reading cells spread over every label page. Reads take no lock, so run
// under -race (as CI does) this asserts the lock-free path is clean.
func TestConcurrentDistinctPages(t *testing.T) {
	d := buildDiagram(t, 80, 10) // 81x81 grid: ~26 pages
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cells := s.NumCells()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				cell := rng.Intn(cells)
				i, j := cell/s.rows, cell%s.rows
				got, err := s.Cell(i, j)
				if err != nil {
					errs <- err
					return
				}
				want := d.Cell(i, j)
				if len(got) != len(want) {
					errs <- fmt.Errorf("cell (%d,%d): got %v want %v", i, j, got, want)
					return
				}
				for x := range want {
					if got[x] != want[x] {
						errs <- fmt.Errorf("cell (%d,%d): got %v want %v", i, j, got, want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
