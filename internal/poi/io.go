package poi

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"csdm/internal/geo"
	"csdm/internal/load"
)

// csvHeader is the column layout of the POI CSV exchange format.
var csvHeader = []string{"id", "name", "lon", "lat", "minor"}

// WriteCSV writes POIs in the CSV exchange format (header + one row per
// POI; the minor category is stored by name).
func WriteCSV(w io.Writer, ps []POI) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("poi: write header: %w", err)
	}
	for _, p := range ps {
		rec := []string{
			strconv.FormatInt(p.ID, 10),
			p.Name,
			strconv.FormatFloat(p.Location.Lon, 'f', -1, 64),
			strconv.FormatFloat(p.Location.Lat, 'f', -1, 64),
			p.Minor.String(),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("poi: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVOptions parses POIs from the CSV exchange format produced by
// WriteCSV under the given failure policy. In strict mode (the zero
// Options) the first malformed row fails the load. In lenient mode malformed rows — bad ids, unknown
// categories, NaN/Inf/out-of-range coordinates, CSV structural damage —
// are skipped and counted by reason, until the bad-row budget (if any)
// is exceeded. The returned stats report exactly what was kept and
// dropped; with a trace attached each reason is published as a
// load.poi.skipped.<reason> counter.
func ReadCSVOptions(r io.Reader, opts load.Options) ([]POI, load.Stats, error) {
	var stats load.Stats
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, stats, fmt.Errorf("poi: read header: %w", err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, stats, fmt.Errorf("poi: unexpected header column %d: got %q, want %q", i, header[i], col)
		}
	}
	var out []POI
	for line := 2; ; line++ {
		offset := cr.InputOffset()
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err == nil {
			var p POI
			if p, err = parseRecord(rec); err == nil {
				out = append(out, p)
				stats.Rows++
				continue
			}
		}
		if !opts.Lenient {
			return nil, stats, fmt.Errorf("poi: line %d: %w", line, err)
		}
		stats.Skip(load.Reason(err))
		if stats.OverBudget(opts) {
			stats.Note(opts.Trace, "poi")
			return nil, stats, fmt.Errorf("poi: line %d: %w after %d skipped rows: %w", line, load.ErrBudget, stats.TotalSkipped(), err)
		}
		if cr.InputOffset() == offset {
			// The reader could not get past the damage; bail out rather
			// than spin on the same offset forever.
			return nil, stats, fmt.Errorf("poi: line %d: unrecoverable: %w", line, err)
		}
	}
	stats.Note(opts.Trace, "poi")
	return out, stats, nil
}

func parseRecord(rec []string) (POI, error) {
	id, err := strconv.ParseInt(rec[0], 10, 64)
	if err != nil {
		return POI{}, &load.RowError{Reason: "id", Err: fmt.Errorf("bad id %q: %w", rec[0], err)}
	}
	lon, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return POI{}, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad lon %q: %w", rec[2], err)}
	}
	lat, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return POI{}, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad lat %q: %w", rec[3], err)}
	}
	minor, ok := MinorByName(rec[4])
	if !ok {
		return POI{}, &load.RowError{Reason: "category", Err: fmt.Errorf("unknown minor category %q", rec[4])}
	}
	p := POI{ID: id, Name: rec[1], Location: geo.Point{Lon: lon, Lat: lat}, Minor: minor}
	if err := p.Location.Check(); err != nil {
		return POI{}, &load.RowError{Reason: coordReason(err), Err: fmt.Errorf("invalid coordinate (%v, %v): %w", lon, lat, err)}
	}
	return p, nil
}

// coordReason maps a geo coordinate rejection to a skip-reason key.
func coordReason(err error) string {
	var ce *geo.CoordError
	if errors.As(err, &ce) {
		return "coord-" + ce.Reason
	}
	return "coord"
}
