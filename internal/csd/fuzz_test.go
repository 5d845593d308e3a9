package csd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"csdm/internal/poi"
)

// fuzzSeed builds the small valid diagram of the fuzz corpus.
func fuzzSeed() *Diagram {
	rng := rand.New(rand.NewSource(7))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.Restaurant, 0, 0, 8, 6)...)
	pois = append(pois, blockOf(rng, 50, poi.BusinessOffice, 400, 0, 8, 6)...)
	return Build(pois, uniformStays(500, 60), DefaultParams())
}

// fuzzSeedDiagram serializes the fuzz corpus diagram.
func fuzzSeedDiagram() []byte {
	var buf bytes.Buffer
	if err := fuzzSeed().Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hostilePOICount is a v3 payload whose POI count claims 2^40 records
// with only 10 bytes left: it must fail before anything is allocated
// for them.
func hostilePOICount() []byte {
	params, err := json.Marshal(DefaultParams())
	if err != nil {
		panic(err)
	}
	b := binary.AppendUvarint(nil, diagramFileVersion)
	b = binary.AppendUvarint(b, uint64(len(params)))
	b = append(b, params...)
	b = binary.AppendUvarint(b, 1<<40)
	return append(b, make([]byte, 10)...)
}

// FuzzReadDiagram pins the hardened-loader contract: Read on arbitrary
// bytes returns a descriptive error or a diagram that round-trips —
// never a panic, and never unbounded allocation from a hostile header.
func FuzzReadDiagram(f *testing.F) {
	valid := fuzzSeedDiagram()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])    // truncated payload
	f.Add(valid[:headerSize])      // header only
	f.Add(valid[:3])               // truncated header
	f.Add([]byte{})                // empty
	f.Add([]byte(`{"version":1}`)) // legacy JSON, incomplete
	f.Add([]byte("CSDFgarbagegarbagegarbage"))
	// Hostile length field: header claims 2^60 payload bytes.
	hostile := append([]byte(nil), valid[:headerSize]...)
	for i := lenOffset; i < lenOffset+8; i++ {
		hostile[i] = 0xff
	}
	f.Add(append(hostile, valid[headerSize:]...))
	// Bit flip in the payload (CRC must catch it).
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// v1 (no lineage fields) and v2 frames around the JSON payload
	// Write emitted before v3.
	payload := jsonPayload(f, fuzzSeed())
	v1 := frame(framingVersionV1, 0, 0, payload)
	f.Add(v1)
	f.Add(v1[:headerSizeV1-2]) // truncated v1 header
	f.Add(frame(framingVersionV2, 3, 2, payload))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		// A diagram Read accepts must survive a write/read round trip.
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatalf("rewrite of accepted diagram: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("reread of accepted diagram: %v", err)
		}
	})
}

func TestReadRejectsCorruptInputs(t *testing.T) {
	valid := fuzzSeedDiagram()
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:5],
		"bad magic":      append([]byte("XXXX"), valid[4:]...),
		"truncated":      valid[:len(valid)-10],
		"header only":    valid[:headerSize],
		"legacy garbage": []byte(`{"version":99}`),
		"not a file":     []byte("hello world, this is not a diagram"),
	}
	// Bit flips anywhere in the payload must fail the CRC.
	for _, off := range []int{headerSize, headerSize + 37, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x01
		cases["bitflip@"+string(rune('a'+off%26))] = flipped
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
}

// TestReadLegacyFormat keeps the pre-framing bare-JSON format loadable:
// the JSON payload alone, with no header, is exactly the legacy format.
func TestReadLegacyFormat(t *testing.T) {
	seed := fuzzSeed()
	d, err := Read(bytes.NewReader(jsonPayload(t, seed)))
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if len(d.Units) == 0 || len(d.Units) != len(seed.Units) {
		t.Fatalf("legacy read: %d units, want %d", len(d.Units), len(seed.Units))
	}
}

// TestReadHostileLengthDoesNotAllocate pins the no-unbounded-allocation
// property: a header claiming an enormous payload fails fast instead of
// sizing a buffer from the untrusted field.
func TestReadHostileLengthDoesNotAllocate(t *testing.T) {
	valid := fuzzSeedDiagram()
	hostile := append([]byte(nil), valid...)
	for i := lenOffset; i < lenOffset+8; i++ {
		hostile[i] = 0xff
	}
	if _, err := Read(bytes.NewReader(hostile)); err == nil {
		t.Fatal("hostile length accepted")
	}
}

// FuzzDecodeDiagramPayload fuzzes past the CRC: bytes go straight to
// the v3 payload decoder and diagramFromFile. Arbitrary input yields an
// error or a diagram, never a panic, and an accepted payload must
// re-encode to exactly the bytes it was decoded from.
func FuzzDecodeDiagramPayload(f *testing.F) {
	valid := fuzzSeedDiagram()[headerSize:]
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(hostilePOICount())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		file, err := decodePayload(payload)
		if err != nil {
			return
		}
		d, err := diagramFromFile(file)
		if err != nil {
			return
		}
		out, err := d.appendPayload(nil)
		if err != nil {
			t.Fatalf("re-encode of accepted payload: %v", err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("accepted payload of %d bytes re-encodes to %d different bytes", len(payload), len(out))
		}
	})
}

// TestDecodeHostileCountDoesNotAllocate pins the count bound: a POI
// count of 2^40 with 10 bytes left fails with a few small allocations
// instead of sizing a slice from the field.
func TestDecodeHostileCountDoesNotAllocate(t *testing.T) {
	hostile := hostilePOICount()
	if _, err := decodePayload(hostile); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("hostile POI count: err = %v, want a count bound error", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() { decodePayload(hostile) })
	runtime.ReadMemStats(&after)
	// The params round trip through encoding/json makes ~13 small
	// allocations (a few more under -race); a slice sized by the count
	// would blow the byte bound by orders of magnitude.
	if allocs > 32 {
		t.Errorf("hostile POI count: %.0f allocations per decode, want <= 32", allocs)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / 21; perRun > 16<<10 {
		t.Errorf("hostile POI count: %d bytes allocated per decode, want <= 16 KiB", perRun)
	}
}

// TestDecodePayloadRefusesNonCanonical: each case differs from a valid
// payload only in encoding — the diagram it would decode to is one Write
// never emits this way — and is refused, which keeps an accepted payload
// equal to its re-encoding.
func TestDecodePayloadRefusesNonCanonical(t *testing.T) {
	d := fuzzSeed()
	valid, err := d.appendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(valid); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	params, err := json.Marshal(d.Params)
	if err != nil {
		t.Fatal(err)
	}
	rest := valid[1+len(binary.AppendUvarint(nil, uint64(len(params))))+len(params):]
	spaced := binary.AppendUvarint([]byte{diagramFileVersion}, uint64(len(params)+1))
	spaced = append(append(append(spaced, ' '), params...), rest...)
	cases := map[string][]byte{
		"overlong version uvarint": append([]byte{0x80 | diagramFileVersion, 0x00}, valid[1:]...),
		"params with whitespace":   spaced,
		"members not increasing": writeV3(t, d, func(c *Diagram) {
			c.Units[0].Members = slices.Clone(c.Units[0].Members)
			slices.Reverse(c.Units[0].Members)
		})[headerSize:],
		"empty unit": writeV3(t, d, func(c *Diagram) { c.Units = append(c.Units, Unit{}) })[headerSize:],
	}
	for name, b := range cases {
		if _, err := decodePayload(b); err == nil {
			t.Errorf("%s: decodePayload accepted a non-canonical payload", name)
		}
	}
}
