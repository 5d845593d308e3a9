package trajectory

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"csdm/internal/geo"
	"csdm/internal/load"
)

// journeyHeader is the column layout of the journey CSV format.
var journeyHeader = []string{
	"taxi_id", "passenger_id",
	"pickup_lon", "pickup_lat", "pickup_time",
	"dropoff_lon", "dropoff_lat", "dropoff_time",
}

// WriteJourneysCSV writes journeys in the CSV exchange format
// (timestamps are RFC 3339).
func WriteJourneysCSV(w io.Writer, js []Journey) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(journeyHeader); err != nil {
		return fmt.Errorf("trajectory: write header: %w", err)
	}
	for _, j := range js {
		rec := []string{
			strconv.FormatInt(j.TaxiID, 10),
			strconv.FormatInt(j.PassengerID, 10),
			strconv.FormatFloat(j.Pickup.Lon, 'f', -1, 64),
			strconv.FormatFloat(j.Pickup.Lat, 'f', -1, 64),
			j.PickupTime.Format(time.RFC3339),
			strconv.FormatFloat(j.Dropoff.Lon, 'f', -1, 64),
			strconv.FormatFloat(j.Dropoff.Lat, 'f', -1, 64),
			j.DropoffTime.Format(time.RFC3339),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trajectory: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJourneysCSVOptions parses journeys written by WriteJourneysCSV
// under the given failure policy. In strict mode (the zero Options)
// the first malformed row fails the load. In lenient mode malformed
// rows — bad ids, NaN/Inf/out-of-range coordinates, unparseable
// timestamps, negative durations, CSV structural damage — are skipped
// and counted by reason, until the bad-row budget (if any) is
// exceeded. With a trace attached each reason is published as a
// load.journeys.skipped.<reason> counter.
func ReadJourneysCSVOptions(r io.Reader, opts load.Options) ([]Journey, load.Stats, error) {
	var out []Journey
	stats, err := StreamJourneysCSV(r, opts, func(j Journey) error {
		out = append(out, j)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// StreamJourneysCSV is ReadJourneysCSVOptions without the
// materialization: each parsed journey is handed to fn in stream order
// and never retained, so a caller can spill a country-scale corpus
// into an out-of-core store with O(1) memory. A non-nil error from fn
// aborts the stream and is returned as-is. The failure policy (strict,
// lenient, bad-row budget, stall guard) is identical to the
// materializing reader.
func StreamJourneysCSV(r io.Reader, opts load.Options, fn func(Journey) error) (load.Stats, error) {
	var stats load.Stats
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(journeyHeader)
	header, err := cr.Read()
	if err != nil {
		return stats, fmt.Errorf("trajectory: read header: %w", err)
	}
	for i, col := range journeyHeader {
		if header[i] != col {
			return stats, fmt.Errorf("trajectory: header column %d: got %q, want %q", i, header[i], col)
		}
	}
	for line := 2; ; line++ {
		offset := cr.InputOffset()
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err == nil {
			var j Journey
			if j, err = parseJourney(rec); err == nil {
				stats.Rows++
				if ferr := fn(j); ferr != nil {
					return stats, ferr
				}
				continue
			}
		}
		if !opts.Lenient {
			return stats, fmt.Errorf("trajectory: line %d: %w", line, err)
		}
		stats.Skip(load.Reason(err))
		if stats.OverBudget(opts) {
			stats.Note(opts.Trace, "journeys")
			return stats, fmt.Errorf("trajectory: line %d: %w after %d skipped rows: %w", line, load.ErrBudget, stats.TotalSkipped(), err)
		}
		if cr.InputOffset() == offset {
			// The reader could not get past the damage; bail out rather
			// than spin on the same offset forever.
			return stats, fmt.Errorf("trajectory: line %d: unrecoverable: %w", line, err)
		}
	}
	stats.Note(opts.Trace, "journeys")
	return stats, nil
}

func parseJourney(rec []string) (Journey, error) {
	var j Journey
	var err error
	if j.TaxiID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
		return j, &load.RowError{Reason: "id", Err: fmt.Errorf("bad taxi_id %q: %w", rec[0], err)}
	}
	if j.PassengerID, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
		return j, &load.RowError{Reason: "id", Err: fmt.Errorf("bad passenger_id %q: %w", rec[1], err)}
	}
	if j.Pickup.Lon, err = strconv.ParseFloat(rec[2], 64); err != nil {
		return j, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad pickup_lon %q: %w", rec[2], err)}
	}
	if j.Pickup.Lat, err = strconv.ParseFloat(rec[3], 64); err != nil {
		return j, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad pickup_lat %q: %w", rec[3], err)}
	}
	if j.PickupTime, err = time.Parse(time.RFC3339, rec[4]); err != nil {
		return j, &load.RowError{Reason: "time", Err: fmt.Errorf("bad pickup_time %q: %w", rec[4], err)}
	}
	if j.Dropoff.Lon, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return j, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad dropoff_lon %q: %w", rec[5], err)}
	}
	if j.Dropoff.Lat, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return j, &load.RowError{Reason: "coord-syntax", Err: fmt.Errorf("bad dropoff_lat %q: %w", rec[6], err)}
	}
	if j.DropoffTime, err = time.Parse(time.RFC3339, rec[7]); err != nil {
		return j, &load.RowError{Reason: "time", Err: fmt.Errorf("bad dropoff_time %q: %w", rec[7], err)}
	}
	for _, p := range []geo.Point{j.Pickup, j.Dropoff} {
		if err := p.Check(); err != nil {
			return j, &load.RowError{Reason: coordReason(err), Err: fmt.Errorf("invalid coordinates: %w", err)}
		}
	}
	if j.DropoffTime.Before(j.PickupTime) {
		return j, &load.RowError{Reason: "duration", Err: fmt.Errorf("dropoff before pickup")}
	}
	return j, nil
}

// coordReason maps a geo coordinate rejection to a skip-reason key.
func coordReason(err error) string {
	var ce *geo.CoordError
	if errors.As(err, &ce) {
		return "coord-" + ce.Reason
	}
	return "coord"
}

// WriteSemanticJSON writes semantic trajectories as a JSON array.
func WriteSemanticJSON(w io.Writer, sts []SemanticTrajectory) error {
	return json.NewEncoder(w).Encode(sts)
}

// ReadSemanticJSON parses semantic trajectories from a JSON array.
func ReadSemanticJSON(r io.Reader) ([]SemanticTrajectory, error) {
	var out []SemanticTrajectory
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("trajectory: decode json: %w", err)
	}
	for i, st := range out {
		for k, sp := range st.Stays {
			if !sp.P.Valid() {
				return nil, fmt.Errorf("trajectory: entry %d stay %d: invalid location %v", i, k, sp.P)
			}
		}
	}
	return out, nil
}
