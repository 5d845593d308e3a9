package csd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"csdm/internal/index"
	"csdm/internal/poi"
)

// diagramFile is the decoded form of a payload: decodePayload fills it
// and diagramFromFile validates it. POIs and popularity are stored in
// full so a loaded diagram can answer every query a freshly built one
// can.
type diagramFile struct {
	Version int
	Params  Params
	POIs    []poi.POI
	Pop     []float64
	// Units stores only the member lists; semantics and centers are
	// derived on load.
	Units [][]int
}

// diagramFileVersion guards the diagram content format. It leads the
// payload.
const diagramFileVersion = 1

// The framed container around the payload: a fixed header of magic,
// framing version, lineage, payload length and payload CRC.
// The header lets Read reject truncated or bit-flipped files before
// trusting any content — checkpoint resume depends on never loading a
// half-written diagram — and the length is only ever used to bound
// reading, never to size an allocation, so a hostile length cannot
// drive memory use.
//
// The generation and parent generation live in the header rather than
// the payload, so two generations with identical content have
// byte-identical payloads (the streaming e2e check compares an
// incremental generation against a full rebuild by payload bytes).
//
// The payload is compact little-endian binary (see appendPayload).
// Framing v3 is the only version written or read: earlier framings
// carried a JSON payload, and Read refuses them, as it refuses the
// headerless bare-JSON files that preceded the frame.
const (
	diagramMagic   = "CSDF"
	framingVersion = 3
	prefixSize     = 4 + 1                      // magic + version byte
	headerSize     = prefixSize + 8 + 8 + 8 + 4 // + generation + parent + length + CRC32
	lenOffset      = prefixSize + 8 + 8         // length field offset (tests corrupt it)
)

// poiRecordMin is the smallest encoded POI record: ID, a one-byte name
// length, Lon, Lat, Minor and Pop.
const poiRecordMin = 8 + 1 + 8 + 8 + 1 + 8

// crcTable is the Castagnoli polynomial table shared by Write and Read.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Write serializes the diagram: a fixed header (magic "CSDF", framing
// version 3, generation lineage, payload length, CRC-32C of the
// payload) followed by the binary payload. A diagram built once from a
// large POI corpus can be reused across sessions without re-running
// construction, and the header lets a reader detect truncation or
// corruption instead of trusting it.
func (d *Diagram) Write(w io.Writer) error {
	// A capacity estimate: params, POI records with short names, and
	// members of at most two uvarint bytes.
	size := headerSize + 256 + len(d.POIs)*(poiRecordMin+24) + 2*len(d.members) + len(d.Units)
	buf, err := d.appendPayload(make([]byte, headerSize, size))
	if err != nil {
		return err
	}
	payload := buf[headerSize:]
	copy(buf[0:4], diagramMagic)
	buf[4] = framingVersion
	binary.LittleEndian.PutUint64(buf[5:13], uint64(d.Generation))
	binary.LittleEndian.PutUint64(buf[13:21], uint64(d.ParentGeneration))
	binary.LittleEndian.PutUint64(buf[21:29], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[29:33], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("csd: write diagram: %w", err)
	}
	return nil
}

// appendPayload appends the framing-v3 payload to b. Integers are
// little-endian; counts, lengths and unit members are uvarints:
//
//	version  uvarint (diagramFileVersion)
//	params   uvarint length, then Params as JSON (off the hot path)
//	POIs     uvarint count, then per POI: ID int64, uvarint name
//	         length and name bytes, Lon and Lat float64 bits, Minor
//	         byte, Pop float64 bits
//	units    uvarint count, then per unit: uvarint member count and
//	         the members' POI indices, increasing
//
// The encoding is canonical: decodePayload accepts exactly the bytes
// appendPayload writes for the diagram it decodes to.
func (d *Diagram) appendPayload(b []byte) ([]byte, error) {
	if len(d.Pop) != len(d.POIs) {
		return nil, fmt.Errorf("csd: encode diagram: popularity length %d != POI count %d", len(d.Pop), len(d.POIs))
	}
	params, err := json.Marshal(d.Params)
	if err != nil {
		return nil, fmt.Errorf("csd: encode diagram params: %w", err)
	}
	le := binary.LittleEndian
	b = binary.AppendUvarint(b, diagramFileVersion)
	b = binary.AppendUvarint(b, uint64(len(params)))
	b = append(b, params...)
	b = binary.AppendUvarint(b, uint64(len(d.POIs)))
	for i, p := range d.POIs {
		b = le.AppendUint64(b, uint64(p.ID))
		b = binary.AppendUvarint(b, uint64(len(p.Name)))
		b = append(b, p.Name...)
		b = le.AppendUint64(b, math.Float64bits(p.Location.Lon))
		b = le.AppendUint64(b, math.Float64bits(p.Location.Lat))
		b = append(b, byte(p.Minor))
		b = le.AppendUint64(b, math.Float64bits(d.Pop[i]))
	}
	b = binary.AppendUvarint(b, uint64(len(d.Units)))
	for _, u := range d.Units {
		b = binary.AppendUvarint(b, uint64(len(u.Members)))
		for _, m := range u.Members {
			b = binary.AppendUvarint(b, uint64(m))
		}
	}
	return b, nil
}

// payloadReader walks a binary payload. The first malformed field
// records an error and empties the input, so every later read returns
// zero and the decoder can check err once per record.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("csd: decode diagram: "+format, args...)
	}
	r.b = nil
}

// uvarint reads a minimally encoded uvarint: an overlong encoding of
// the same value is refused, so the payload stays canonical.
func (r *payloadReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("malformed %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count and refuses one that claims more
// elements than the bytes left could hold at minSize bytes each, so
// no allocation is ever sized by an unchecked field.
func (r *payloadReader) count(what string, minSize int) int {
	n := r.uvarint(what)
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.fail("%s %d exceeds the %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *payloadReader) take(n int, what string) []byte {
	if n > len(r.b) {
		r.fail("truncated %s", what)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) u8(what string) byte {
	if len(r.b) < 1 {
		r.fail("truncated %s", what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *payloadReader) u64(what string) uint64 {
	if len(r.b) < 8 {
		r.fail("truncated %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *payloadReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// decodePayload decodes a framing-v3 payload. It checks the encoding —
// bounded counts, minimal uvarints, canonical params, non-empty units
// with increasing members, no trailing bytes — and leaves every
// semantic check to diagramFromFile.
func decodePayload(b []byte) (diagramFile, error) {
	var f diagramFile
	r := payloadReader{b: b}
	f.Version = int(min(r.uvarint("version"), math.MaxInt32))
	params := r.take(r.count("params length", 1), "params")
	if r.err != nil {
		return f, r.err
	}
	if err := json.Unmarshal(params, &f.Params); err != nil {
		return f, fmt.Errorf("csd: decode diagram params: %w", err)
	}
	if canon, err := json.Marshal(f.Params); err != nil || !bytes.Equal(canon, params) {
		return f, fmt.Errorf("csd: decode diagram: params are not canonical")
	}
	n := r.count("POI count", poiRecordMin)
	f.POIs = make([]poi.POI, n)
	f.Pop = make([]float64, n)
	// Names are gathered into one arena and converted to a single
	// string that every POI's Name slices, instead of one allocation
	// per POI.
	var names []byte
	nameEnd := make([]int, n)
	for i := range f.POIs {
		p := &f.POIs[i]
		p.ID = int64(r.u64("POI ID"))
		names = append(names, r.take(r.count("POI name length", 1), "POI name")...)
		nameEnd[i] = len(names)
		p.Location.Lon = r.f64("POI location")
		p.Location.Lat = r.f64("POI location")
		p.Minor = poi.Minor(r.u8("POI category"))
		f.Pop[i] = r.f64("popularity")
		if r.err != nil {
			return f, r.err
		}
	}
	arena, start := string(names), 0
	for i, end := range nameEnd {
		f.POIs[i].Name, start = arena[start:end], end
	}
	f.Units = make([][]int, r.count("unit count", 1))
	// The units slice one shared member array. Every member takes at
	// least a byte and count bounds k by the bytes left, so the array
	// sized by the bytes left here never runs out.
	flat := make([]int, len(r.b))
	for ui := range f.Units {
		k := r.count("member count", 1)
		if r.err == nil && k == 0 {
			r.fail("unit %d is empty", ui)
		}
		if r.err != nil {
			return f, r.err
		}
		members := flat[:k:k]
		flat = flat[k:]
		var prev uint64
		for j := range members {
			m := r.uvarint("unit member")
			if j > 0 && m <= prev {
				r.fail("unit %d members not increasing", ui)
			}
			// A member past MaxInt wraps negative here, which
			// diagramFromFile refuses as out of range.
			members[j], prev = int(m), m
		}
		if r.err != nil {
			return f, r.err
		}
		f.Units[ui] = members
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes after the units", len(r.b))
	}
	return f, r.err
}

// Read loads a diagram written by Write, verifying the header frame
// (magic, version, exact payload length, CRC) before decoding the
// payload and rebuilding the derived state (unit semantics, centers,
// the member index). Only framing v3 is accepted: a file of an earlier
// framing is refused as an unsupported framing version, and a
// headerless one (the bare JSON of the first format) by its bad magic.
// Any truncated, corrupt or adversarial input yields a descriptive
// error — never a panic, and never an allocation sized by an untrusted
// field (see readPayload and payloadReader.count), so a hostile length
// or count bounds reading, not memory.
func Read(r io.Reader) (*Diagram, error) {
	var pre [prefixSize]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("csd: truncated diagram header: %w", err)
		}
		return nil, fmt.Errorf("csd: read diagram header: %w", err)
	}
	if string(pre[0:4]) != diagramMagic {
		return nil, fmt.Errorf("csd: bad magic %q: not a diagram file", pre[0:4])
	}
	if pre[4] != framingVersion {
		return nil, fmt.Errorf("csd: unsupported framing version %d", pre[4])
	}
	var tail [headerSize - prefixSize]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("csd: truncated diagram header: %w", err)
	}
	gen := binary.LittleEndian.Uint64(tail[0:8])
	parent := binary.LittleEndian.Uint64(tail[8:16])
	length := binary.LittleEndian.Uint64(tail[16:24])
	wantCRC := binary.LittleEndian.Uint32(tail[24:28])
	payload, err := readPayload(r, length)
	if err != nil {
		return nil, fmt.Errorf("csd: read payload: %w", err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("csd: truncated payload: %d of %d bytes", len(payload), length)
	}
	if crc := crc32.Checksum(payload, crcTable); crc != wantCRC {
		return nil, fmt.Errorf("csd: payload checksum mismatch: got %08x, want %08x", crc, wantCRC)
	}
	if gen > math.MaxInt64 || parent > math.MaxInt64 {
		return nil, fmt.Errorf("csd: implausible generation lineage %d/%d", gen, parent)
	}
	f, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	d, err := diagramFromFile(f)
	if err != nil {
		return nil, err
	}
	d.Generation = int64(gen)
	d.ParentGeneration = int64(parent)
	return d, nil
}

// readPayload reads up to length bytes of payload. The buffer starts at
// the length only when the reader vouches that many bytes remain (a
// regular file's size, a bytes.Reader's Len); otherwise it grows with
// the bytes actually read, so a hostile length never sizes an
// allocation. A short result is the caller's to refuse.
func readPayload(r io.Reader, length uint64) ([]byte, error) {
	left := int64(512)
	switch v := r.(type) {
	case interface{ Len() int }:
		left = int64(v.Len())
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			if off, err := v.Seek(0, io.SeekCurrent); err == nil {
				left = fi.Size() - off
			}
		}
	}
	b := make([]byte, 0, min(length, uint64(max(left, 0))))
	for uint64(len(b)) < length {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		end := uint64(cap(b))
		n, err := r.Read(b[len(b):min(end, length)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ReadFile loads a diagram from a file written with Write (via
// ckpt.WriteAtomic or -save-diagram), wrapping every error with the
// path it came from. It is the one loader every binary that consumes a
// .csdf snapshot — csdminer -load-diagram, csdserve's startup and
// hot-reload path — goes through, so the framed CRC validation is
// never bypassed.
func ReadFile(path string) (*Diagram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csd: open snapshot: %w", err)
	}
	defer f.Close()
	d, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("csd: snapshot %s: %w", path, err)
	}
	return d, nil
}

// diagramFromFile validates a decoded payload and materializes the
// diagram. Every cross-reference is bounds-checked before use so a
// corrupt payload that survives the CRC still cannot crash the loader.
func diagramFromFile(f diagramFile) (*Diagram, error) {
	if f.Version != diagramFileVersion {
		return nil, fmt.Errorf("csd: unsupported diagram version %d", f.Version)
	}
	if len(f.Pop) != len(f.POIs) {
		return nil, fmt.Errorf("csd: popularity length %d != POI count %d", len(f.Pop), len(f.POIs))
	}
	if f.Params.R3Sigma <= 0 {
		return nil, fmt.Errorf("csd: invalid R3Sigma %v", f.Params.R3Sigma)
	}
	for i, p := range f.POIs {
		if !p.Minor.Valid() {
			return nil, fmt.Errorf("csd: POI %d has invalid category", i)
		}
		if !p.Location.Valid() {
			return nil, fmt.Errorf("csd: POI %d has invalid location", i)
		}
	}
	seen := make([]bool, len(f.POIs))
	for ui, members := range f.Units {
		for _, m := range members {
			if m < 0 || m >= len(f.POIs) {
				return nil, fmt.Errorf("csd: unit %d references POI %d out of range", ui, m)
			}
			if seen[m] {
				return nil, fmt.Errorf("csd: POI %d belongs to multiple units", m)
			}
			seen[m] = true
		}
	}

	d := &Diagram{
		Params: f.Params,
		POIs:   f.POIs,
		Pop:    f.Pop,
		kernel: newKernelFor(f.Params),
	}
	d.finalize(f.Units, index.KindGrid)
	return d, nil
}
