package shard

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csdm/internal/geo"
)

// everywhere is a rectangle containing every non-NaN coordinate.
var everywhere = geo.Rect{
	Min: geo.Point{Lon: math.Inf(-1), Lat: math.Inf(-1)},
	Max: geo.Point{Lon: math.Inf(1), Lat: math.Inf(1)},
}

// storeBytes writes n stays through a StoreWriter with the given chunk
// capacity and returns the file's bytes.
func storeBytes(tb testing.TB, dir string, n, chunkCap int) []byte {
	tb.Helper()
	path := filepath.Join(dir, "seed.csdstay")
	w, err := CreateStayStore(path, chunkCap)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Add(geo.Point{Lon: 121 + float64(i%17)*1e-3, Lat: 31 + float64(i%29)*1e-3}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openBytes writes data to a fresh file and opens it as a stay store.
func openBytes(tb testing.TB, dir string, data []byte) (*StayStore, error) {
	tb.Helper()
	path := filepath.Join(dir, "store.csdstay")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		tb.Fatal(err)
	}
	return OpenStayStore(path)
}

// TestOpenStayStoreRejectsCorruption pins open-time validation: a store
// cut inside its trailing chunk header or inside a chunk's columns, or
// whose chunk count is patched to 2³²−1, must fail Open (not read as a
// shorter store) without allocating anything near the claimed size.
func TestOpenStayStoreRejectsCorruption(t *testing.T) {
	const chunkCap, tail = 8, 5
	dir := t.TempDir()
	valid := storeBytes(t, dir, 3*chunkCap+tail, chunkCap)
	lastChunk := len(valid) - (chunkHeaderSize + 16*tail)

	hugeCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeCount[stayHeaderSize:], math.MaxUint32)
	zeroCap := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(zeroCap[12:16], 0)
	nanBounds := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nanBounds[stayHeaderSize+4:], math.Float64bits(math.NaN()))

	for name, data := range map[string][]byte{
		"truncated trailing header": valid[:lastChunk+chunkHeaderSize/2],
		"truncated columns":         valid[:len(valid)-8],
		"count 0xFFFFFFFF":          hugeCount,
		"chunk capacity 0":          zeroCap,
		"NaN bounds":                nanBounds,
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := openBytes(t, t.TempDir(), data)
			runtime.ReadMemStats(&after)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted a corrupt store (Len %d)", s.Len())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("Open allocated %d bytes on a %d-byte file", grew, len(data))
			}
		})
	}

	s, err := openBytes(t, dir, valid)
	if err != nil {
		t.Fatalf("valid store: %v", err)
	}
	defer s.Close()
	if s.Len() != 3*chunkCap+tail {
		t.Fatalf("Len = %d, want %d", s.Len(), 3*chunkCap+tail)
	}
}

// TestLoadRectRejectsPointOutsideBounds: chunk bounds decide which
// chunks LoadRect reads, so a point that contradicts its chunk's bounds
// is reported instead of silently filtered.
func TestLoadRectRejectsPointOutsideBounds(t *testing.T) {
	dir := t.TempDir()
	data := storeBytes(t, dir, 4, 8)
	// The first column value is the first stay's longitude.
	binary.LittleEndian.PutUint64(data[stayHeaderSize+chunkHeaderSize:], math.Float64bits(-500))
	s, err := openBytes(t, dir, data)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.LoadRect(everywhere); err == nil {
		t.Fatal("LoadRect accepted a stay outside its chunk bounds")
	}
}

// FuzzOpenStayStore pins the stay-store reader contract on arbitrary
// bytes: Open never panics, and a store that opens loads exactly Len()
// stays, ids dense and ascending, over an unbounded rectangle — or
// reports the corrupt chunk, but never silently returns fewer.
func FuzzOpenStayStore(f *testing.F) {
	valid := storeBytes(f, f.TempDir(), 21, 8)
	f.Add(valid)
	for _, cut := range []int{0, 3, stayHeaderSize, stayHeaderSize + 10, stayHeaderSize + chunkHeaderSize + 8, len(valid) - 8, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openBytes(t, t.TempDir(), data)
		if err != nil {
			return
		}
		defer s.Close()
		ids, pp, err := s.LoadRect(everywhere)
		if err != nil {
			return
		}
		if len(ids) != s.Len() || pp.Len() != s.Len() {
			t.Fatalf("LoadRect over everything returned %d stays (%d points), Len %d", len(ids), pp.Len(), s.Len())
		}
		for k, id := range ids {
			if id != k {
				t.Fatalf("ids[%d] = %d, want dense ascending ids", k, id)
			}
		}
	})
}
