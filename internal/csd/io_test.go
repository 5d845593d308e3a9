package csd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"csdm/internal/poi"
)

// buildSample constructs a small diagram with two distinct units.
func buildSample(t *testing.T) *Diagram {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.Restaurant, 0, 0, 10, 6)...)
	pois = append(pois, blockOf(rng, 100, poi.BusinessOffice, 500, 0, 10, 6)...)
	return Build(pois, uniformStays(700, 80), DefaultParams())
}

func TestDiagramRoundTrip(t *testing.T) {
	d := buildSample(t)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Units) != len(d.Units) {
		t.Fatalf("units = %d, want %d", len(got.Units), len(d.Units))
	}
	for i := range d.Units {
		a, b := d.Units[i], got.Units[i]
		if a.Semantics != b.Semantics {
			t.Fatalf("unit %d semantics %v != %v", i, b.Semantics, a.Semantics)
		}
		if len(a.Members) != len(b.Members) {
			t.Fatalf("unit %d members %d != %d", i, len(b.Members), len(a.Members))
		}
	}
	for i := range d.POIs {
		if got.UnitOf(i) != d.UnitOf(i) {
			t.Fatalf("UnitOf(%d) = %d, want %d", i, got.UnitOf(i), d.UnitOf(i))
		}
		if got.Pop[i] != d.Pop[i] {
			t.Fatalf("Pop[%d] differs", i)
		}
	}
	// Queries behave identically.
	if a, b := d.MembersWithinAppend(origin, 100, nil), got.MembersWithinAppend(origin, 100, nil); len(a) != len(b) {
		t.Fatalf("MembersWithinAppend: %d vs %d", len(b), len(a))
	}
	if got.Coverage() != d.Coverage() {
		t.Fatalf("coverage differs")
	}
}

// jsonPayload encodes d as the JSON payload of framings v1 and v2 and
// of the headerless bare-JSON files before them: what Write emitted
// before framing v3, and what Read now refuses.
func jsonPayload(t testing.TB, d *Diagram) []byte {
	t.Helper()
	f := struct {
		Version int       `json:"version"`
		Params  Params    `json:"params"`
		POIs    []poi.POI `json:"pois"`
		Pop     []float64 `json:"pop"`
		Units   [][]int   `json:"units"`
	}{
		Version: diagramFileVersion,
		Params:  d.Params,
		POIs:    d.POIs,
		Pop:     d.Pop,
		Units:   make([][]int, len(d.Units)),
	}
	for i, u := range d.Units {
		f.Units[i] = u.Members
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame wraps payload in a header of the given framing version with a
// correct length and CRC; framing v1 had no lineage fields.
func frame(version byte, gen, parent int64, payload []byte) []byte {
	b := append([]byte(diagramMagic), version)
	if version != 1 {
		b = binary.LittleEndian.AppendUint64(b, uint64(gen))
		b = binary.LittleEndian.AppendUint64(b, uint64(parent))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// writeV3 writes a copy of d after mutate edits it, so a corrupt
// diagram reaches Read inside a CRC-valid v3 frame.
func writeV3(t *testing.T, d *Diagram, mutate func(c *Diagram)) []byte {
	t.Helper()
	c := *d
	c.POIs = slices.Clone(d.POIs)
	c.Units = slices.Clone(d.Units)
	mutate(&c)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reframeV3 applies edit to the payload of the v3 file b and frames the
// result again with a recomputed CRC.
func reframeV3(b []byte, edit func(payload []byte) []byte) []byte {
	payload := edit(slices.Clone(b[headerSize:]))
	return frame(framingVersion, 0, 0, payload)
}

// expectRejected reads each case and requires an error containing the
// case's substring — the check that should refuse it — and never the
// CRC, which every case passes.
func expectRejected(t *testing.T, cases map[string][]byte, want map[string]string) {
	t.Helper()
	for name, data := range cases {
		_, err := Read(bytes.NewReader(data))
		switch {
		case err == nil:
			t.Errorf("%s: Read accepted corrupt input", name)
		case strings.Contains(err.Error(), "checksum"):
			t.Errorf("%s: rejected by the CRC, not by the check under test: %v", name, err)
		case !strings.Contains(err.Error(), want[name]):
			t.Errorf("%s: error %q, want it to mention %q", name, err, want[name])
		}
	}
}

// TestDiagramReadRejectsCorrupt: each corrupt payload sits in a frame
// with a correct CRC, so only decoding and validation can refuse it.
func TestDiagramReadRejectsCorrupt(t *testing.T) {
	d := buildSample(t)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	params, err := json.Marshal(d.Params)
	if err != nil {
		t.Fatal(err)
	}
	// Offset of the POI count: version byte, params length, params.
	countAt := 1 + len(binary.AppendUvarint(nil, uint64(len(params)))) + len(params)
	cases := map[string][]byte{
		"truncated": v3[:len(v3)/2],
		"bad version": reframeV3(v3, func(p []byte) []byte {
			p[0] = 9
			return p
		}),
		"bad category": writeV3(t, d, func(c *Diagram) { c.POIs[0].Minor = 250 }),
		"member overlap": writeV3(t, d, func(c *Diagram) {
			c.Units[1].Members = append(slices.Clone(c.Units[1].Members), c.Units[0].Members[0])
			slices.Sort(c.Units[1].Members)
		}),
		// Pop travels inside each POI record, so v3 cannot state a
		// popularity list of the wrong length; its counterpart is a POI
		// count that disagrees with the records that follow.
		"pop mismatch": reframeV3(v3, func(p []byte) []byte {
			n, k := binary.Uvarint(p[countAt:])
			out := append(slices.Clone(p[:countAt]), binary.AppendUvarint(nil, n+1)...)
			return append(out, p[countAt+k:]...)
		}),
	}
	want := map[string]string{
		"truncated":      "truncated",
		"bad version":    "unsupported diagram version",
		"bad category":   "invalid category",
		"member overlap": "multiple units",
		"pop mismatch":   "POI count",
	}
	expectRejected(t, cases, want)
}

// TestDiagramReadRejectsOutOfRangeMember: a member index past the POI
// list, inside a CRC-valid frame.
func TestDiagramReadRejectsOutOfRangeMember(t *testing.T) {
	d := buildSample(t)
	last := len(d.Units) - 1
	cases := map[string][]byte{
		"v3": writeV3(t, d, func(c *Diagram) {
			c.Units[last].Members = append(slices.Clone(c.Units[last].Members), 99999)
		}),
	}
	expectRejected(t, cases, map[string]string{"v3": "out of range"})
}

// TestReadRejectsTrailingJunk: bytes after the units of a payload are
// refused, even inside a CRC-valid frame.
func TestReadRejectsTrailingJunk(t *testing.T) {
	d := buildSample(t)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	junk := reframeV3(buf.Bytes(), func(p []byte) []byte {
		return append(p, "xyz"...)
	})
	if _, err := Read(bytes.NewReader(junk)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("trailing junk: err = %v, want a trailing bytes error", err)
	}
}

// TestReadRefusesPreV3Formats: the formats Write emitted before framing
// v3 — a v1 frame (no lineage), a v2 frame and the headerless bare JSON
// before them, each a valid file of its time — are refused by the
// header, as an unsupported framing version or a bad magic.
func TestReadRefusesPreV3Formats(t *testing.T) {
	d := buildSample(t)
	payload := jsonPayload(t, d)
	cases := map[string][]byte{
		"v1":        frame(1, 0, 0, payload),
		"v2":        frame(2, 4, 3, payload),
		"bare JSON": payload,
	}
	want := map[string]string{
		"v1":        "unsupported framing version 1",
		"v2":        "unsupported framing version 2",
		"bare JSON": "bad magic",
	}
	expectRejected(t, cases, want)
}

// TestLineageRoundTrip: generation and parent live in the header and
// must survive write/read; the payload must NOT change with them,
// so identical content at different generations is payload-byte-equal.
func TestLineageRoundTrip(t *testing.T) {
	d := buildSample(t)
	d.Generation, d.ParentGeneration = 7, 6
	var a bytes.Buffer
	if err := d.Write(&a); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.ParentGeneration != 6 {
		t.Fatalf("lineage: got %d/%d, want 7/6", got.Generation, got.ParentGeneration)
	}
	d.Generation, d.ParentGeneration = 12, 7
	var b bytes.Buffer
	if err := d.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes()[headerSize:], b.Bytes()[headerSize:]) {
		t.Fatal("payload bytes changed with generation; lineage leaked into the payload")
	}
	if bytes.Equal(a.Bytes()[:headerSize], b.Bytes()[:headerSize]) {
		t.Fatal("header did not change with generation")
	}
}

// requireSameContent checks that got carries want's content bit for
// bit: params, POIs, Pop bits, unit members and semantics, and UnitOf.
func requireSameContent(t *testing.T, want, got *Diagram) {
	t.Helper()
	if got.Params != want.Params {
		t.Fatalf("params %+v, want %+v", got.Params, want.Params)
	}
	if !slices.Equal(got.POIs, want.POIs) {
		t.Fatal("POIs differ")
	}
	if len(got.Pop) != len(want.Pop) {
		t.Fatalf("pop length %d, want %d", len(got.Pop), len(want.Pop))
	}
	for i := range want.Pop {
		if math.Float64bits(got.Pop[i]) != math.Float64bits(want.Pop[i]) {
			t.Fatalf("Pop[%d] bits %016x, want %016x", i, math.Float64bits(got.Pop[i]), math.Float64bits(want.Pop[i]))
		}
		if got.UnitOf(i) != want.UnitOf(i) {
			t.Fatalf("UnitOf(%d) = %d, want %d", i, got.UnitOf(i), want.UnitOf(i))
		}
	}
	if len(got.Units) != len(want.Units) {
		t.Fatalf("units %d, want %d", len(got.Units), len(want.Units))
	}
	for i := range want.Units {
		a, b := want.Units[i], got.Units[i]
		if !slices.Equal(a.Members, b.Members) || a.Semantics != b.Semantics || a.Center != b.Center {
			t.Fatalf("unit %d differs", i)
		}
	}
}

// TestPayloadRoundTripProperties: the binary payload carries every value
// exactly — names in any script or none, invalid UTF-8, a NUL, -0 and
// subnormal popularity, the extreme IDs — and Write→Read→Write is
// byte-identical.
func TestPayloadRoundTripProperties(t *testing.T) {
	d := buildSample(t)
	names := []string{"Café Déjà Vu", "东方明珠塔", "Пекарня №5", "🚕 rank", "", "a\x00b", "\xff\xfe"}
	for i := range d.POIs {
		d.POIs[i].Name = names[i%len(names)]
	}
	d.POIs[0].ID, d.POIs[1].ID = math.MinInt64, math.MaxInt64
	d.Pop[2] = math.Copysign(0, -1)
	d.Pop[3] = math.SmallestNonzeroFloat64
	d.Pop[4] = math.Float64frombits(0x000f_ffff_ffff_ffff) // largest subnormal
	d.Generation, d.ParentGeneration = math.MaxInt64, math.MaxInt64-1

	var a bytes.Buffer
	if err := d.Write(&a); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameContent(t, d, got)
	if got.Generation != d.Generation || got.ParentGeneration != d.ParentGeneration {
		t.Fatalf("lineage %d/%d, want %d/%d", got.Generation, got.ParentGeneration, d.Generation, d.ParentGeneration)
	}
	var b bytes.Buffer
	if err := got.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Write→Read→Write is not byte-identical")
	}
}
