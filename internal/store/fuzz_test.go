package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen feeds arbitrary bytes to New. It must never panic; a file it
// accepts must answer every cell through Cell; and Open on the same bytes
// written to disk must reach the same verdict. Random mutations almost never
// survive the trailer CRC, so each input is also tried with its trailer
// recomputed, which lets the fuzzer reach the structural and label checks
// behind it. The seed corpus lives in testdata/fuzz/FuzzStoreOpen.
func FuzzStoreOpen(f *testing.F) {
	d := buildDiagram(f, 6, 1)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOpen(t, dir, data)
		if len(data) >= trailerSize {
			sealed := append([]byte(nil), data...)
			reseal(sealed)
			checkOpen(t, dir, sealed)
		}
	})
}

func checkOpen(t *testing.T, dir string, data []byte) {
	s, err := New(append([]byte(nil), data...))
	if err == nil {
		for i := 0; i < s.cols; i++ {
			for j := 0; j < s.rows; j++ {
				if _, cerr := s.Cell(i, j); cerr != nil {
					t.Fatalf("accepted file fails cell (%d,%d): %v", i, j, cerr)
				}
			}
		}
	}
	path := filepath.Join(dir, "fuzz.sky")
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		t.Fatal(werr)
	}
	fs, ferr := Open(path)
	if (err == nil) != (ferr == nil) {
		t.Fatalf("verdicts diverge: New err %v, Open err %v", err, ferr)
	}
	if fs != nil {
		fs.Close()
	}
}
