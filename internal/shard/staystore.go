package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"csdm/internal/geo"
)

// StaySource feeds stay points to shards by region. Implementations
// must uphold the exactness contract: LoadRect returns every stored
// stay whose coordinates fall inside r (inclusive), with ids strictly
// ascending global stay ids (the order the stays were appended in) and
// pts.At(k) returning stay ids[k]'s original coordinate bits. Ascending
// ids are what let a shard reproduce the monolithic build's canonical
// per-POI float-addition order without ever seeing the full dataset.
type StaySource interface {
	// Len returns the total number of stays in the source.
	Len() int
	// LoadRect materializes the stays inside r.
	LoadRect(r geo.Rect) (ids []int, pts *geo.PackedPoints, err error)
}

// MemStays adapts an in-memory stay slice (ids are slice indices).
type MemStays []geo.Point

// Len implements StaySource.
func (m MemStays) Len() int { return len(m) }

// LoadRect implements StaySource.
func (m MemStays) LoadRect(r geo.Rect) ([]int, *geo.PackedPoints, error) {
	var ids []int
	pp := &geo.PackedPoints{}
	for i, p := range m {
		if r.Contains(p) {
			ids = append(ids, i)
			pp.AppendPoint(p)
		}
	}
	return ids, pp, nil
}

// The on-disk columnar stay store: a fixed header followed by chunks of
// up to chunkCap points, each chunk a count, its coordinate bounding
// rectangle, and the lon/lat columns as raw little-endian float64 —
// geo.PackedPoints' layout, spilled. The bounds let LoadRect skip whole
// chunks without reading their columns, so a shard's resident set is
// the intersecting chunks, not the corpus. No footer: Open discovers
// chunks with a cheap forward scan of the fixed-size chunk headers.
const (
	stayMagic       = "CSDSTAY1"
	stayVersion     = 1
	stayHeaderSize  = len(stayMagic) + 8 // magic + version u32 + chunkCap u32
	chunkHeaderSize = 4 + 4*8            // count u32 + bounds rect (4 × f64)
	// DefaultChunkCap is the default points-per-chunk (64 KiB of
	// coordinate data per chunk).
	DefaultChunkCap = 4096
)

// StoreWriter streams stay points into an on-disk store in append
// order, preserving global stay ids.
type StoreWriter struct {
	f          *os.File
	w          *bufio.Writer
	chunkCap   int
	lons, lats []float64
	total      int
}

// CreateStayStore creates (truncates) the store at path. chunkCap <= 0
// selects DefaultChunkCap.
func CreateStayStore(path string, chunkCap int) (*StoreWriter, error) {
	if chunkCap <= 0 {
		chunkCap = DefaultChunkCap
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("shard: create stay store: %w", err)
	}
	w := &StoreWriter{f: f, w: bufio.NewWriterSize(f, 1<<16), chunkCap: chunkCap}
	var hdr [16]byte
	copy(hdr[:8], stayMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], stayVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(chunkCap))
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Add appends one stay point (the next global id).
func (w *StoreWriter) Add(p geo.Point) error {
	w.lons = append(w.lons, p.Lon)
	w.lats = append(w.lats, p.Lat)
	w.total++
	if len(w.lons) >= w.chunkCap {
		return w.flush()
	}
	return nil
}

// Append appends pts in order.
func (w *StoreWriter) Append(pts []geo.Point) error {
	for _, p := range pts {
		if err := w.Add(p); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of stays written so far.
func (w *StoreWriter) Len() int { return w.total }

func (w *StoreWriter) flush() error {
	n := len(w.lons)
	if n == 0 {
		return nil
	}
	var hdr [chunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	bounds := geo.Rect{Min: geo.Point{Lon: w.lons[0], Lat: w.lats[0]}, Max: geo.Point{Lon: w.lons[0], Lat: w.lats[0]}}
	for i := 1; i < n; i++ {
		bounds = bounds.Extend(geo.Point{Lon: w.lons[i], Lat: w.lats[i]})
	}
	binary.LittleEndian.PutUint64(hdr[4:12], math.Float64bits(bounds.Min.Lon))
	binary.LittleEndian.PutUint64(hdr[12:20], math.Float64bits(bounds.Min.Lat))
	binary.LittleEndian.PutUint64(hdr[20:28], math.Float64bits(bounds.Max.Lon))
	binary.LittleEndian.PutUint64(hdr[28:36], math.Float64bits(bounds.Max.Lat))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8*n)
	for i, v := range w.lons {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	for i, v := range w.lats {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.lons = w.lons[:0]
	w.lats = w.lats[:0]
	return nil
}

// Close flushes the tail chunk and syncs the file.
func (w *StoreWriter) Close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

type stayChunk struct {
	off    int64 // file offset of the coordinate columns
	start  int   // global id of the chunk's first stay
	count  int
	bounds geo.Rect
}

// StayStore is the read side: an open store whose chunk directory is
// resident but whose coordinate columns load on demand, per LoadRect.
// LoadRect is safe for concurrent use (reads go through ReadAt).
type StayStore struct {
	f      *os.File
	chunks []stayChunk
	total  int
}

// OpenStayStore opens the store at path and scans its chunk directory.
// Nothing read from the file is trusted before it is checked against
// the file's size: a truncated chunk header, a chunk count of zero or
// above the store's chunk capacity, columns that run past the end of
// the file and malformed chunk bounds are all errors, so a corrupt
// store can neither drop stays silently nor size an allocation beyond
// the file itself.
func OpenStayStore(path string) (*StayStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: open stay store: %w", err)
	}
	s := &StayStore{f: f}
	if err := s.scan(path); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan validates the store header and reads the chunk directory.
func (s *StayStore) scan(path string) error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("shard: stay store: %w", err)
	}
	size := fi.Size()
	var hdr [stayHeaderSize]byte
	if _, err := io.ReadFull(s.f, hdr[:]); err != nil {
		return fmt.Errorf("shard: stay store header: %w", err)
	}
	if string(hdr[:8]) != stayMagic {
		return fmt.Errorf("shard: %s is not a stay store (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != stayVersion {
		return fmt.Errorf("shard: stay store version %d, want %d", v, stayVersion)
	}
	chunkCap := int64(binary.LittleEndian.Uint32(hdr[12:16]))
	if chunkCap == 0 {
		return errors.New("shard: stay store: chunk capacity 0")
	}
	var ch [chunkHeaderSize]byte
	for off := int64(stayHeaderSize); off < size; {
		if size-off < chunkHeaderSize {
			return fmt.Errorf("shard: stay store: truncated chunk header at offset %d", off)
		}
		if _, err := s.f.ReadAt(ch[:], off); err != nil {
			return fmt.Errorf("shard: stay store chunk directory: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(ch[0:4]))
		if n == 0 || n > chunkCap {
			return fmt.Errorf("shard: stay store: chunk at offset %d holds %d stays, want 1..%d", off, n, chunkCap)
		}
		end := off + chunkHeaderSize + 16*n
		if end > size {
			return fmt.Errorf("shard: stay store: chunk at offset %d ends at byte %d, past the end of the file (%d bytes)", off, end, size)
		}
		bounds := geo.Rect{
			Min: geo.Point{Lon: math.Float64frombits(binary.LittleEndian.Uint64(ch[4:12])), Lat: math.Float64frombits(binary.LittleEndian.Uint64(ch[12:20]))},
			Max: geo.Point{Lon: math.Float64frombits(binary.LittleEndian.Uint64(ch[20:28])), Lat: math.Float64frombits(binary.LittleEndian.Uint64(ch[28:36]))},
		}
		// Written this way round so NaN bounds fail too.
		if !(bounds.Min.Lon <= bounds.Max.Lon && bounds.Min.Lat <= bounds.Max.Lat) {
			return fmt.Errorf("shard: stay store: chunk at offset %d has malformed bounds %v", off, bounds)
		}
		s.chunks = append(s.chunks, stayChunk{off: off + chunkHeaderSize, start: s.total, count: int(n), bounds: bounds})
		s.total += int(n)
		off = end
	}
	return nil
}

// Len implements StaySource.
func (s *StayStore) Len() int { return s.total }

// Close closes the underlying file.
func (s *StayStore) Close() error { return s.f.Close() }

// LoadRect implements StaySource: it reads only the chunks whose
// bounds intersect r and filters their points, so memory is
// proportional to the matching region, never the store. A point outside
// its chunk's recorded bounds is corruption and an error: the bounds
// decide which chunks are read, so a lying chunk would drop stays.
func (s *StayStore) LoadRect(r geo.Rect) ([]int, *geo.PackedPoints, error) {
	var ids []int
	pp := &geo.PackedPoints{}
	var buf []byte
	for _, c := range s.chunks {
		if !r.Intersects(c.bounds) {
			continue
		}
		need := 16 * c.count
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := s.f.ReadAt(buf, c.off); err != nil {
			return nil, nil, fmt.Errorf("shard: stay store read chunk at %d: %w", c.off, err)
		}
		lats := buf[8*c.count:]
		for i := 0; i < c.count; i++ {
			p := geo.Point{
				Lon: math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])),
				Lat: math.Float64frombits(binary.LittleEndian.Uint64(lats[8*i:])),
			}
			if !c.bounds.Contains(p) {
				return nil, nil, fmt.Errorf("shard: stay store chunk at %d: stay %d at %v lies outside the chunk bounds", c.off, c.start+i, p)
			}
			if r.Contains(p) {
				ids = append(ids, c.start+i)
				pp.AppendPoint(p)
			}
		}
	}
	return ids, pp, nil
}
