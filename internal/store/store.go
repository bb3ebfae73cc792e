// Package store persists skyline diagrams in one binary file and serves
// point-location queries straight from its bytes — the deployment shape of a
// precomputation structure: build once on a beefy machine, ship the file,
// map it on small ones and answer queries with no build step.
//
// File layout (all integers big-endian), format version 4:
//
//	header   magic "SKYDSTO1", version, dim, #points, cols, rows,
//	         cellsPerPage, #pages, section offsets, epoch, 8 reserved bytes
//	points   id:int64, coords: dim × float64  (grid lines are rebuilt from
//	         these on open, exactly as the in-memory constructors do)
//	index    per page: offset:uint64, length:uint32, crc32:uint32
//	pages    each page: cellsPerPage interned result labels (uint32,
//	         0xFFFFFFFF for padding past the last cell) — fixed
//	         4·cellsPerPage bytes per page
//	arena    the interned CSR result table shared by every cell:
//	         #results:uint32, #ids:uint32, offsets: (#results+1) × uint32,
//	         ids: #ids × uint32, crc32 of the section
//	trailer  magic "SKYDEND1", crc32 of every preceding byte
//
// The epoch is the replication generation assigned by the builder that
// published the file. Replicas negotiate snapshot transfers by epoch (fetch
// only when the builder is ahead) and routers use it to measure staleness;
// the trailer CRC covers it like every other header byte, so a flipped epoch
// is ErrCorrupt, not a silent time warp. No other version opens.
//
// A Store is the whole file as one byte slice — a read-only memory map from
// Open, or any slice handed to New — verified once when it is opened: the
// trailer CRC, every page CRC in the index, the arena CRC, every section
// bound, and every label (in range for a real cell, 0xFFFFFFFF exactly in the
// padding). Silent corruption, including a torn write that stopped mid-file,
// turns into ErrCorrupt there instead of a wrong skyline later. After that
// nothing can fail: point location is O(1) via rank tables over the rebuilt
// grid lines, a label is one load from the page bytes, and QueryXY answers
// with zero allocations and no lock, aliasing the decoded arena.
//
// CreateFile is crash-safe: it writes to a temporary file in the target's
// directory, fsyncs it, renames it into place, and fsyncs the directory, so
// a crash at any instant leaves either the previous generation or the new
// one — never a torn file under the target name. Recover opens a path after
// a suspected crash, salvaging a completed-but-unrenamed generation and
// discarding torn temporaries.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/dyndiag"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/quaddiag"
	"repro/internal/resultset"
)

const (
	magic   = "SKYDSTO1"
	version = 4
	// headerSize covers the fixed fields (64 bytes), the epoch (uint64) and
	// 8 reserved zero bytes.
	headerSize   = 80
	indexEntrySz = 16
	// trailerMagic ends every file, followed by a CRC32 of all preceding
	// bytes.
	trailerMagic = "SKYDEND1"
	trailerSize  = 12
	// noCell pads label pages past the diagram's last cell.
	noCell = 0xFFFFFFFF
	// CellsPerPage is the number of labels per page, the unit the index
	// checksums.
	CellsPerPage = 256
	pageBytes    = 4 * CellsPerPage
)

// ErrCorrupt marks a file whose bytes are structurally or checksum-wise
// wrong: torn writes, flipped bits, truncation, out-of-range labels. I/O
// failures (reading or mapping the file) are returned as-is and do NOT wrap
// ErrCorrupt, so callers can tell a poisoned file (rebuild or restore it)
// from a flaky disk (retry).
var ErrCorrupt = errors.New("store: corrupt file")

// Diagram kinds stored in the header.
const (
	kindQuadrant = 1
	kindDynamic  = 2
)

// Write serialises a quadrant diagram to w with epoch 0 (an unversioned
// snapshot).
func Write(w io.Writer, d *quaddiag.Diagram) error {
	return WriteEpoch(w, d, 0)
}

// WriteEpoch is Write with an explicit replication epoch stamped into the
// header — the builder's snapshot generation, negotiated by replicas.
func WriteEpoch(w io.Writer, d *quaddiag.Diagram, epoch uint64) error {
	labels, table := d.ExportCSR()
	return writeCSR(w, d.Points, labels, table, d.Grid.Cols(), d.Grid.Rows(), kindQuadrant, epoch)
}

// WriteDynamic serialises a dynamic diagram to w. The subcell grid is
// rebuilt deterministically from the points on open, exactly like the cell
// grid of the quadrant form.
func WriteDynamic(w io.Writer, d *dyndiag.Diagram) error {
	return WriteDynamicEpoch(w, d, 0)
}

// WriteDynamicEpoch is WriteDynamic with an explicit replication epoch.
func WriteDynamicEpoch(w io.Writer, d *dyndiag.Diagram, epoch uint64) error {
	labels, table := d.ExportCSR()
	return writeCSR(w, d.Points, labels, table, d.Sub.Cols(), d.Sub.Rows(), kindDynamic, epoch)
}

// canonicalCSR reports whether labels reference every table result exactly
// in first-appearance order — the shape a fresh build's freeze produces. A
// maintained (copy-on-write updated) diagram fails this: its arena carries
// garbage results no cell references anymore, and its labels are not in
// first-use order.
func canonicalCSR(labels []uint32, table *resultset.Table) bool {
	next := uint32(0)
	for _, l := range labels {
		if l == next {
			next++
		} else if l > next {
			return false
		}
	}
	return int(next) == table.NumResults()
}

// writeCSR writes the file: fixed-size label pages plus one arena section
// holding the interned result table.
//
// The live frozen table is reused verbatim when it is already canonical (a
// fresh build). A maintained snapshot is canonicalized first with a pure
// first-use-order copy (resultset.CompactLabels) — never a re-freeze — so
// persist-after-update costs one arena copy, produces bytes identical to
// persisting a from-scratch rebuild, and never writes maintenance garbage
// (whose result count can exceed the cell count and would be rejected as
// corrupt on open).
func writeCSR(w io.Writer, pts []geom.Point, labels []uint32, table *resultset.Table, cols, rows, kind int, epoch uint64) error {
	numPages := (len(labels) + CellsPerPage - 1) / CellsPerPage
	if len(labels) == 0 {
		return fmt.Errorf("store: diagram has no cells")
	}
	if !canonicalCSR(labels, table) {
		labels, table = resultset.CompactLabels(labels, table)
	}

	raw := bufio.NewWriter(w)
	// Everything before the trailer streams through the payload CRC, which
	// the trailer then pins for whole-file verification on open.
	sum := crc32.NewIEEE()
	bw := io.MultiWriter(raw, sum)
	be := binary.BigEndian
	// Label pages: fixed pageBytes each, noCell padding past the end.
	pages := make([][]byte, numPages)
	for pg := range pages {
		page := make([]byte, pageBytes)
		for k := 0; k < CellsPerPage; k++ {
			idx := pg*CellsPerPage + k
			if idx < len(labels) {
				be.PutUint32(page[4*k:], labels[idx])
			} else {
				be.PutUint32(page[4*k:], noCell)
			}
		}
		pages[pg] = page
	}
	if err := writeSections(raw, bw, pts, pages, cols, rows, kind, encodeArena(table), epoch); err != nil {
		return err
	}
	return finishTrailer(raw, sum)
}

// writeSections writes header, points, page index, pages, and the arena
// section through bw (raw is flushed on an injected page fault to leave the
// torn prefix behind, as a crash would).
func writeSections(raw *bufio.Writer, bw io.Writer, pts []geom.Point, pages [][]byte, cols, rows, kind int, arena []byte, epoch uint64) error {
	be := binary.BigEndian
	pointsSize := len(pts) * (8 + 8*dimOf(pts))
	indexOffset := headerSize + pointsSize
	pagesOffset := indexOffset + len(pages)*indexEntrySz

	hdr := make([]byte, headerSize)
	copy(hdr[0:8], magic)
	be.PutUint32(hdr[8:], version)
	be.PutUint32(hdr[12:], uint32(dimOf(pts)))
	be.PutUint64(hdr[16:], uint64(len(pts)))
	be.PutUint32(hdr[24:], uint32(cols))
	be.PutUint32(hdr[28:], uint32(rows))
	be.PutUint32(hdr[32:], CellsPerPage)
	be.PutUint64(hdr[36:], uint64(len(pages)))
	be.PutUint64(hdr[44:], uint64(indexOffset))
	be.PutUint64(hdr[52:], uint64(pagesOffset))
	be.PutUint32(hdr[60:], uint32(kind))
	be.PutUint64(hdr[64:], epoch)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}

	// Points.
	var buf [8]byte
	for _, p := range pts {
		be.PutUint64(buf[:], uint64(int64(p.ID)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, v := range p.Coords {
			be.PutUint64(buf[:], math.Float64bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}

	// Index.
	off := uint64(pagesOffset)
	for _, page := range pages {
		be.PutUint64(buf[:], off)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		be.PutUint32(buf[:4], uint32(len(page)))
		be.PutUint32(buf[4:8], crc32.ChecksumIEEE(page))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		off += uint64(len(page))
	}

	// Pages.
	for _, page := range pages {
		if err := faultinject.Hit("store.write.page"); err != nil {
			_ = raw.Flush() // leave the torn prefix behind, as a crash would
			return err
		}
		if _, err := bw.Write(page); err != nil {
			return err
		}
	}

	// Arena, placed directly after the last page.
	_, err := bw.Write(arena)
	return err
}

// finishTrailer appends the whole-file checksum trailer (not part of its own
// checksum) and flushes.
func finishTrailer(raw *bufio.Writer, sum hash.Hash32) error {
	var tr [trailerSize]byte
	copy(tr[0:8], trailerMagic)
	binary.BigEndian.PutUint32(tr[8:], sum.Sum32())
	if _, err := raw.Write(tr[:]); err != nil {
		return err
	}
	return raw.Flush()
}

// encodeArena lays out the interned result table section:
// #results, #ids, offsets, ids, section crc32.
func encodeArena(t *resultset.Table) []byte {
	be := binary.BigEndian
	offs, ids := t.Offsets(), t.IDs()
	buf := make([]byte, 8+4*len(offs)+4*len(ids)+4)
	be.PutUint32(buf[0:], uint32(t.NumResults()))
	be.PutUint32(buf[4:], uint32(len(ids)))
	off := 8
	for _, o := range offs {
		be.PutUint32(buf[off:], o)
		off += 4
	}
	for _, id := range ids {
		be.PutUint32(buf[off:], uint32(id))
		off += 4
	}
	be.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

func dimOf(pts []geom.Point) int {
	if len(pts) == 0 {
		return 2
	}
	return pts[0].Dim()
}

// TempSuffix is appended to the target path for the intermediate file
// CreateFile writes before the atomic rename. Recover knows to look for it.
const TempSuffix = ".tmp"

// CreateFile writes the diagram to path atomically: the bytes go to a
// temporary file in the same directory, which is fsynced and then renamed
// over path, followed by a directory fsync. A crash (or injected fault) at
// any step leaves path holding either its previous contents or the complete
// new file — never a torn mix. A torn temporary may remain; CreateFile
// overwrites it on the next attempt and Recover discards it.
func CreateFile(path string, d *quaddiag.Diagram) error {
	return createFile(path, func(w io.Writer) error { return Write(w, d) })
}

// CreateFileEpoch is CreateFile with a replication epoch stamped into the
// header.
func CreateFileEpoch(path string, d *quaddiag.Diagram, epoch uint64) error {
	return createFile(path, func(w io.Writer) error { return WriteEpoch(w, d, epoch) })
}

// CreateFileDynamic is CreateFile for a dynamic diagram.
func CreateFileDynamic(path string, d *dyndiag.Diagram) error {
	return createFile(path, func(w io.Writer) error { return WriteDynamic(w, d) })
}

func createFile(path string, write func(io.Writer) error) error {
	tmp := path + TempSuffix
	if err := faultinject.Hit("store.create.create"); err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Hit("store.create.sync"); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faultinject.Hit("store.create.rename"); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := faultinject.Hit("store.create.dirsync"); err != nil {
		return fmt.Errorf("store: sync dir of %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse to fsync directories are tolerated: the rename
// itself is still atomic, only its durability window widens.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	_ = df.Sync()
	return nil
}

// Recover opens the diagram at path after a suspected crash. If path opens
// cleanly it wins and any leftover temporary is deleted. If path is corrupt
// or missing but a complete temporary from an interrupted CreateFile exists,
// that newer generation is renamed into place and served. A torn temporary
// is deleted. When neither generation is usable, the original open error is
// returned (wrapping ErrCorrupt when the file is damaged rather than
// unreadable).
func Recover(path string) (*Store, error) {
	tmp := path + TempSuffix
	s, err := Open(path)
	if err == nil {
		_ = os.Remove(tmp)
		return s, nil
	}
	if ts, terr := Open(tmp); terr == nil {
		// The temp is a complete, checksum-clean generation: the crash hit
		// between the data fsync and the rename. Finish the job.
		ts.Close()
		if rerr := os.Rename(tmp, path); rerr != nil {
			return nil, rerr
		}
		if serr := syncDir(filepath.Dir(path)); serr != nil {
			return nil, serr
		}
		return Open(path)
	}
	_ = os.Remove(tmp)
	return nil, err
}

// Store serves queries from a diagram file held as one byte slice.
type Store struct {
	// data is the whole file; mapped reports whether it is a read-only
	// memory map that Close must release.
	data   []byte
	mapped bool

	kind       int
	cols, rows int
	// epoch is the replication generation stamped by the builder that
	// published this snapshot.
	epoch uint64
	// labels is the label-page section of data: one big-endian uint32 per
	// cell in row-major order, every one checked against table at open.
	labels []byte
	// xrank/yrank are O(1) point-location tables over the rebuilt grid lines
	// (see grid.Rank), so a stored-diagram query is two array loads plus a
	// label indirection.
	xrank, yrank *grid.Rank
	points       []geom.Point
	// table is the interned result arena, decoded once at open (the file is
	// big-endian, so it cannot be aliased on little-endian hosts); Cell
	// resolves a label into it without copying.
	table *resultset.Table

	// active counts in-flight queries so Close can drain them before
	// unmapping: a replica that swapped in a newer snapshot closes the old
	// store while stragglers may still be reading mapped label pages, and
	// unmapping under a reader would fault. Queries entering after Close
	// began are still answered from the not-yet-released map.
	active atomic.Int64
}

// Open maps a diagram file read-only and verifies it (see New). Where the
// platform has no mmap or mapping fails, the whole file is read into memory
// instead — same answers, same checks; Mapped reports which happened. The
// file descriptor is closed before Open returns on every path.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		if int64(int(size)) != size {
			return nil, fmt.Errorf("store: %s: %d bytes do not fit in memory", path, size)
		}
		data = make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, fmt.Errorf("store: read %s: %w", path, err)
		}
		return New(data)
	}
	s, err := New(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	s.mapped = true
	return s, nil
}

// OpenMmap is Open.
//
// Deprecated: Open maps the file itself; use it.
func OpenMmap(path string) (*Store, error) { return Open(path) }

// New opens a store over a whole diagram file held in data, which the store
// retains and the caller must not modify afterwards. Every check runs here,
// once, before any header-declared count sizes a buffer: magic and version,
// the trailer CRC over every preceding byte, the section layout, every page
// CRC in the index, the arena CRC and CSR shape, every label (below the
// arena's result count for a real cell, noCell exactly in the padding), and
// the grid the points imply. Any failure wraps ErrCorrupt, except a version
// other than 4 or a page shape other than CellsPerPage, which are reported
// as unsupported.
func New(data []byte) (*Store, error) {
	be := binary.BigEndian
	size := int64(len(data))
	if size < 12 {
		return nil, fmt.Errorf("%w: %d bytes is too small for a header", ErrCorrupt, size)
	}
	if string(data[0:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:8])
	}
	if v := be.Uint32(data[8:]); v != version {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	// Verifying the trailer first turns any torn or bit-flipped region into
	// ErrCorrupt before a single header field is trusted.
	if err := verifyTrailer(data); err != nil {
		return nil, err
	}
	s := &Store{
		data:  data,
		cols:  int(be.Uint32(data[24:])),
		rows:  int(be.Uint32(data[28:])),
		kind:  int(be.Uint32(data[60:])),
		epoch: be.Uint64(data[64:]),
	}
	dim := int(be.Uint32(data[12:]))
	if s.kind != kindQuadrant && s.kind != kindDynamic {
		return nil, fmt.Errorf("%w: unknown diagram kind %d", ErrCorrupt, s.kind)
	}
	if cpp := be.Uint32(data[32:]); cpp != CellsPerPage {
		return nil, fmt.Errorf("store: page shape %d not supported (want %d)", cpp, CellsPerPage)
	}
	if s.cols <= 0 || s.rows <= 0 || dim != 2 {
		return nil, fmt.Errorf("%w: header: cols=%d rows=%d dim=%d", ErrCorrupt, s.cols, s.rows, dim)
	}
	// Bound every header-declared count against the file size before
	// slicing or allocating with it.
	if int64(s.cols)*int64(s.rows) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: header: %dx%d cells", ErrCorrupt, s.cols, s.rows)
	}
	cells := s.cols * s.rows
	numPages := (cells + CellsPerPage - 1) / CellsPerPage
	if got := be.Uint64(data[36:]); got != uint64(numPages) {
		return nil, fmt.Errorf("%w: header claims %d pages for %d cells", ErrCorrupt, got, cells)
	}
	const recordSize = 8 + 8*2
	numPoints64 := be.Uint64(data[16:])
	if numPoints64 > uint64(size-headerSize)/recordSize {
		return nil, fmt.Errorf("%w: header claims %d points but the file holds %d bytes",
			ErrCorrupt, numPoints64, size)
	}
	numPoints := int(numPoints64)
	// The writer lays the sections back to back: header, points, index,
	// pages, arena, trailer. Every offset the header declares must agree.
	indexOff := int64(headerSize) + int64(numPoints)*recordSize
	pagesOff := indexOff + int64(numPages)*indexEntrySz
	arenaOff := pagesOff + int64(numPages)*pageBytes
	if got := int64(be.Uint64(data[44:])); got != indexOff {
		return nil, fmt.Errorf("%w: header puts the index at %d (want %d for %d points)",
			ErrCorrupt, got, indexOff, numPoints)
	}
	if got := int64(be.Uint64(data[52:])); got != pagesOff {
		return nil, fmt.Errorf("%w: header puts the pages at %d (want %d)", ErrCorrupt, got, pagesOff)
	}
	if arenaOff > size-trailerSize {
		return nil, fmt.Errorf("%w: %d label pages overrun the %d-byte file", ErrCorrupt, numPages, size)
	}

	// Page index: every entry names its page exactly and matches its CRC.
	for pg := 0; pg < numPages; pg++ {
		e := data[indexOff+int64(pg)*indexEntrySz:]
		off := pagesOff + int64(pg)*pageBytes
		if be.Uint64(e) != uint64(off) || be.Uint32(e[8:]) != pageBytes {
			return nil, fmt.Errorf("%w: index entry %d names %d bytes at %d (want %d at %d)",
				ErrCorrupt, pg, be.Uint32(e[8:]), be.Uint64(e), pageBytes, off)
		}
		if crc32.ChecksumIEEE(data[off:off+pageBytes]) != be.Uint32(e[12:]) {
			return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, pg)
		}
	}
	table, err := decodeArena(data[arenaOff:size-trailerSize], cells, numPoints)
	if err != nil {
		return nil, err
	}
	s.table = table
	s.labels = data[pagesOff:arenaOff]
	if err := s.checkLabels(); err != nil {
		return nil, err
	}

	// Points, then the grid they imply.
	s.points = make([]geom.Point, numPoints)
	off := headerSize
	for i := range s.points {
		id := int64(be.Uint64(data[off:]))
		x := math.Float64frombits(be.Uint64(data[off+8:]))
		y := math.Float64frombits(be.Uint64(data[off+16:]))
		off += recordSize
		// No diagram is built over a NaN or infinite coordinate, and the
		// grid rebuild below would not terminate on one.
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("%w: point %d has a non-finite coordinate (%v, %v)", ErrCorrupt, i, x, y)
		}
		s.points[i] = geom.Point{ID: int(id), Coords: []float64{x, y}}
	}
	var xs, ys []float64
	if s.kind == kindDynamic {
		sg := grid.NewSubGrid(s.points)
		if sg.Cols() != s.cols || sg.Rows() != s.rows {
			return nil, fmt.Errorf("%w: points imply a %dx%d subgrid, header says %dx%d",
				ErrCorrupt, sg.Cols(), sg.Rows(), s.cols, s.rows)
		}
		xs = make([]float64, len(sg.XLines))
		for i, l := range sg.XLines {
			xs[i] = l.V
		}
		ys = make([]float64, len(sg.YLines))
		for i, l := range sg.YLines {
			ys[i] = l.V
		}
	} else {
		g := grid.NewGrid(s.points)
		if g.Cols() != s.cols || g.Rows() != s.rows {
			return nil, fmt.Errorf("%w: points imply a %dx%d grid, header says %dx%d",
				ErrCorrupt, g.Cols(), g.Rows(), s.cols, s.rows)
		}
		xs, ys = g.Xs, g.Ys
	}
	s.xrank, s.yrank = grid.NewRank(xs), grid.NewRank(ys)
	return s, nil
}

// verifyTrailer checks the whole-file checksum against the trailer.
func verifyTrailer(data []byte) error {
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("%w: %d bytes is too small for a header and trailer", ErrCorrupt, len(data))
	}
	body, tr := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	if string(tr[0:8]) != trailerMagic {
		return fmt.Errorf("%w: missing trailer (torn write?)", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tr[8:]) {
		return fmt.Errorf("%w: full-file checksum mismatch", ErrCorrupt)
	}
	return nil
}

// decodeArena bounds-checks, CRC-verifies and decodes the arena section b,
// which must run exactly up to the trailer.
func decodeArena(b []byte, cells, numPoints int) (*resultset.Table, error) {
	be := binary.BigEndian
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: arena header overruns the file", ErrCorrupt)
	}
	numResults := uint64(be.Uint32(b[0:]))
	totalIDs := uint64(be.Uint32(b[4:]))
	// At most one result per cell, and every result id names a stored
	// point, so totalIDs ≤ results × points.
	if numResults > uint64(cells)+1 {
		return nil, fmt.Errorf("%w: arena claims %d results for %d cells", ErrCorrupt, numResults, cells)
	}
	if totalIDs > numResults*uint64(numPoints) {
		return nil, fmt.Errorf("%w: arena claims %d ids for %d results over %d points",
			ErrCorrupt, totalIDs, numResults, numPoints)
	}
	if want := 8 + 4*(numResults+1) + 4*totalIDs + 4; uint64(len(b)) != want {
		return nil, fmt.Errorf("%w: arena is %d bytes, its counts say %d", ErrCorrupt, len(b), want)
	}
	if crc32.ChecksumIEEE(b[:len(b)-4]) != be.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: arena checksum mismatch", ErrCorrupt)
	}
	offsets := make([]uint32, numResults+1)
	off := 8
	for i := range offsets {
		offsets[i] = be.Uint32(b[off:])
		off += 4
	}
	ids := make([]int32, totalIDs)
	for i := range ids {
		ids[i] = int32(be.Uint32(b[off:]))
		off += 4
	}
	t, ok := resultset.NewTable(offsets, ids)
	if !ok {
		return nil, fmt.Errorf("%w: arena offsets are not a valid CSR table", ErrCorrupt)
	}
	return t, nil
}

// checkLabels verifies that every real cell's label names an arena result
// and that the padding past the last cell holds noCell and nothing else, so
// no query can ever index past the arena.
func (s *Store) checkLabels() error {
	be := binary.BigEndian
	cells := s.cols * s.rows
	n := uint32(s.table.NumResults())
	for c := 0; c < cells; c++ {
		if l := be.Uint32(s.labels[4*c:]); l >= n {
			return fmt.Errorf("%w: cell %d label %d out of range (%d results)", ErrCorrupt, c, l, n)
		}
	}
	for c := cells; 4*c < len(s.labels); c++ {
		if l := be.Uint32(s.labels[4*c:]); l != noCell {
			return fmt.Errorf("%w: padding slot %d holds label %d", ErrCorrupt, c, l)
		}
	}
	return nil
}

// Close releases the memory map, if any. In-flight queries are drained
// first (bounded wait), so a replica may swap a newer snapshot in and close
// this one while stragglers are still reading mapped pages — they finish
// against the live mapping, then the map is released.
func (s *Store) Close() error {
	if !s.mapped {
		return nil
	}
	// The wait is bounded: queries are microseconds, so exhausting it means
	// a stuck reader — at that point leaking the map briefly beats faulting
	// it.
	for i := 0; s.active.Load() != 0 && i < 4000; i++ {
		time.Sleep(500 * time.Microsecond)
	}
	return munmapFile(s.data)
}

// Points returns the stored dataset.
func (s *Store) Points() []geom.Point { return s.points }

// NumCells returns the diagram size.
func (s *Store) NumCells() int { return s.cols * s.rows }

// Epoch returns the replication epoch stamped by the builder that published
// this snapshot (0 for an unversioned one).
func (s *Store) Epoch() uint64 { return s.epoch }

// WriteTo streams the snapshot file verbatim to w, letting a replica serve
// the catch-up protocol from its own current file (chained replication) with
// no re-serialization.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	n, err := w.Write(s.data)
	return int64(n), err
}

// Kind returns the stored diagram kind, "quadrant" or "dynamic".
func (s *Store) Kind() string {
	if s.kind == kindDynamic {
		return "dynamic"
	}
	return "quadrant"
}

// Mapped reports whether the store serves from a memory map rather than a
// copy of the file in memory.
func (s *Store) Mapped() bool { return s.mapped }

// LocateXY returns the cell indices containing (x, y), O(1) via the rank
// tables. The boundary conventions match the in-memory grids exactly.
func (s *Store) LocateXY(x, y float64) (i, j int) {
	return s.xrank.Rank(x), s.yrank.Rank(y)
}

// Query answers a skyline query from the file.
func (s *Store) Query(q geom.Point) ([]int32, error) {
	return s.QueryXY(q.X(), q.Y()), nil
}

// QueryXY answers a skyline query without the geom.Point wrapper — the
// serving hot path. It allocates nothing and takes no lock: the result
// aliases the shared arena and must not be modified.
func (s *Store) QueryXY(x, y float64) []int32 {
	s.active.Add(1)
	defer s.active.Add(-1)
	i, j := s.LocateXY(x, y)
	return s.result(i*s.rows + j)
}

// Cell returns the result of cell (i, j). The slice aliases the shared arena
// and must not be modified.
func (s *Store) Cell(i, j int) ([]int32, error) {
	if i < 0 || j < 0 || i >= s.cols || j >= s.rows {
		return nil, fmt.Errorf("store: cell (%d,%d) out of range %dx%d", i, j, s.cols, s.rows)
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	return s.result(i*s.rows + j), nil
}

// result resolves a row-major cell index through its label, which New has
// already checked against the arena.
func (s *Store) result(cell int) []int32 {
	return s.table.Result(binary.BigEndian.Uint32(s.labels[4*cell:]))
}
