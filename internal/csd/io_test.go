package csd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"regexp"
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

// jsonPayload encodes d as the JSON payload of framing v1 and v2 and of
// legacy bare-JSON files: what Write emitted before framing v3.
func jsonPayload(t testing.TB, d *Diagram) []byte {
	t.Helper()
	f := diagramFile{
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
// correct length and CRC; v1 has no lineage fields.
func frame(version byte, gen, parent int64, payload []byte) []byte {
	b := append([]byte(diagramMagic), version)
	if version != framingVersionV1 {
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
// with a correct CRC, so only decoding and validation can refuse it —
// for the JSON payload of framing v2 and the binary one of v3.
func TestDiagramReadRejectsCorrupt(t *testing.T) {
	d := buildSample(t)
	valid := string(jsonPayload(t, d))
	v2 := func(payload string) []byte { return frame(framingVersionV2, 0, 0, []byte(payload)) }

	badCategory := regexp.MustCompile(`"minor":\d+`).ReplaceAllString(valid, `"minor":250`)
	cases := map[string][]byte{
		"truncated":      v2(valid)[:len(valid)/2],
		"bad version":    v2(strings.Replace(valid, `"version":1`, `"version":9`, 1)),
		"bad category":   v2(badCategory),
		"member overlap": v2(strings.Replace(valid, `"units":[[`, `"units":[[0,0,`, 1)),
		"pop mismatch":   v2(strings.Replace(valid, `"pop":[`, `"pop":[999999,`, 1)),
	}
	want := map[string]string{
		"truncated":      "truncated",
		"bad version":    "unsupported diagram version",
		"bad category":   "invalid category",
		"member overlap": "multiple units",
		"pop mismatch":   "popularity length",
	}
	expectRejected(t, cases, want)

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
	cases = map[string][]byte{
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
	want = map[string]string{
		"truncated":      "truncated",
		"bad version":    "unsupported diagram version",
		"bad category":   "invalid category",
		"member overlap": "multiple units",
		"pop mismatch":   "POI count",
	}
	expectRejected(t, cases, want)
}

// TestDiagramReadRejectsOutOfRangeMember: a member index past the POI
// list, inside a CRC-valid v2 (JSON) and v3 (binary) frame.
func TestDiagramReadRejectsOutOfRangeMember(t *testing.T) {
	d := buildSample(t)
	payload := strings.Replace(string(jsonPayload(t, d)), `"units":[[`, `"units":[[99999,`, 1)
	last := len(d.Units) - 1
	cases := map[string][]byte{
		"v2": frame(framingVersionV2, 0, 0, []byte(payload)),
		"v3": writeV3(t, d, func(c *Diagram) {
			c.Units[last].Members = append(slices.Clone(c.Units[last].Members), 99999)
		}),
	}
	expectRejected(t, cases, map[string]string{"v2": "out of range", "v3": "out of range"})
}

// TestReadRejectsTrailingJunk: bytes after the payload's content are
// refused in every format — after the JSON value of a v1 or v2 frame
// or a legacy file, and after the units of a v3 payload — while the
// JSON encoder's trailing newline stays acceptable.
func TestReadRejectsTrailingJunk(t *testing.T) {
	d := buildSample(t)
	payload := jsonPayload(t, d)
	junk := append(slices.Clone(payload), "xyz-not-json"...)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"v1":     frame(framingVersionV1, 0, 0, junk),
		"v2":     frame(framingVersionV2, 0, 0, junk),
		"legacy": junk,
		"v3": reframeV3(buf.Bytes(), func(p []byte) []byte {
			return append(p, "xyz"...)
		}),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read accepted trailing junk", name)
		}
	}
	spaced := append(slices.Clone(payload), " \t\r\n"...)
	if _, err := Read(bytes.NewReader(frame(framingVersionV2, 0, 0, spaced))); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
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

// TestReadFramingV1 keeps pre-lineage framed files loadable: a v1 header
// (no generation fields) around the JSON payload of its time reads back
// with zero lineage.
func TestReadFramingV1(t *testing.T) {
	d := buildSample(t)
	v1 := frame(framingVersionV1, 0, 0, jsonPayload(t, d))

	got, err := Read(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 read: %v", err)
	}
	if got.Generation != 0 || got.ParentGeneration != 0 {
		t.Fatalf("v1 lineage: got %d/%d, want 0/0", got.Generation, got.ParentGeneration)
	}
	if len(got.Units) != len(d.Units) {
		t.Fatalf("v1 units: got %d, want %d", len(got.Units), len(d.Units))
	}
	// Truncated v1 header must be rejected, not misparsed.
	if _, err := Read(bytes.NewReader(v1[:headerSizeV1-3])); err == nil {
		t.Fatal("truncated v1 header accepted")
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

// TestJSONSnapshotRewritesAsV3: a v2 (JSON) snapshot of a bench-style
// synthetic city, read and re-written, comes out as framing v3 and
// reloads to the same Pop bits, POIs, units, UnitOf and lineage.
func TestJSONSnapshotRewritesAsV3(t *testing.T) {
	stays, city := maintWorkload(t)
	d := Build(city.POIs, stays, DefaultParams())
	if len(d.Units) == 0 {
		t.Fatal("sample city built no units")
	}
	old, err := Read(bytes.NewReader(frame(framingVersionV2, 4, 3, jsonPayload(t, d))))
	if err != nil {
		t.Fatalf("v2 read: %v", err)
	}
	requireSameContent(t, d, old)
	var buf bytes.Buffer
	if err := old.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != framingVersion {
		t.Fatalf("rewritten snapshot has framing version %d, want %d", v, framingVersion)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("v3 read: %v", err)
	}
	requireSameContent(t, d, got)
	if got.Generation != 4 || got.ParentGeneration != 3 {
		t.Fatalf("lineage %d/%d, want 4/3", got.Generation, got.ParentGeneration)
	}
}
