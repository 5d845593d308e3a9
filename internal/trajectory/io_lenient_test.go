package trajectory

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/load"
	"csdm/internal/obs"
)

// dirtyJourneyCSV builds a journey CSV with good rows interleaved with
// one bad row per failure flavor, returning the expected reason counts.
func dirtyJourneyCSV(good int) (string, map[string]int) {
	var b strings.Builder
	b.WriteString(strings.Join(journeyHeader, ",") + "\n")
	bad := map[string]int{}
	writeBad := func(row, reason string) {
		b.WriteString(row + "\n")
		bad[reason]++
	}
	for i := 0; i < good; i++ {
		fmt.Fprintf(&b, "%d,%d,121.4,31.2,2019-04-0%dT08:00:00Z,121.5,31.3,2019-04-0%dT08:30:00Z\n",
			i, i, i%9+1, i%9+1)
		switch i {
		case 1:
			writeBad("x,1,121.4,31.2,2019-04-01T08:00:00Z,121.5,31.3,2019-04-01T08:30:00Z", "id")
		case 3:
			writeBad("9,1,NaN,31.2,2019-04-01T08:00:00Z,121.5,31.3,2019-04-01T08:30:00Z", "coord-nan")
		case 5:
			writeBad("9,1,121.4,31.2,notatime,121.5,31.3,2019-04-01T08:30:00Z", "time")
		case 7:
			// Dropoff before pickup: a negative-duration journey.
			writeBad("9,1,121.4,31.2,2019-04-01T09:00:00Z,121.5,31.3,2019-04-01T08:30:00Z", "duration")
		case 9:
			writeBad("9,1,121.4,120,2019-04-01T08:00:00Z,121.5,31.3,2019-04-01T08:30:00Z", "coord-lat-range")
		case 11:
			writeBad("9,1,121.4,31.2", "csv")
		}
	}
	return b.String(), bad
}

func TestReadJourneysCSVLenientSkipsAndCounts(t *testing.T) {
	text, wantBad := dirtyJourneyCSV(30)
	tr := obs.New()
	js, stats, err := ReadJourneysCSVOptions(strings.NewReader(text), load.Options{Lenient: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 30 || stats.Rows != 30 {
		t.Fatalf("kept %d journeys (stats %d), want 30", len(js), stats.Rows)
	}
	for reason, want := range wantBad {
		if got := stats.Skipped[reason]; got != want {
			t.Errorf("skipped[%s] = %d, want %d", reason, got, want)
		}
		if got := tr.Counter("load.journeys.skipped." + reason); got != int64(want) {
			t.Errorf("counter load.journeys.skipped.%s = %d, want %d", reason, got, want)
		}
	}
	if stats.TotalSkipped() != len(wantBad) {
		t.Fatalf("TotalSkipped = %d, want %d: %v", stats.TotalSkipped(), len(wantBad), stats.Skipped)
	}
}

func TestReadJourneysCSVStrictStillFailsFast(t *testing.T) {
	text, _ := dirtyJourneyCSV(30)
	if _, _, err := ReadJourneysCSVOptions(strings.NewReader(text), load.Options{}); err == nil {
		t.Fatal("strict mode accepted a dirty file")
	}
}

func TestReadJourneysCSVBadRowBudget(t *testing.T) {
	text, wantBad := dirtyJourneyCSV(30)
	nBad := 0
	for _, c := range wantBad {
		nBad += c
	}
	_, _, err := ReadJourneysCSVOptions(strings.NewReader(text), load.Options{Lenient: true, MaxBadRows: nBad - 1})
	if !errors.Is(err, load.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	_, stats, err := ReadJourneysCSVOptions(strings.NewReader(text), load.Options{Lenient: true, MaxBadRows: nBad})
	if err != nil || stats.TotalSkipped() != nBad {
		t.Fatalf("at-budget load: skipped %d, err %v", stats.TotalSkipped(), err)
	}
}

// FuzzReadJourneysCSV pins the journey loader against arbitrary input
// in both modes: an error or a journey set, never a panic or a hang.
func FuzzReadJourneysCSV(f *testing.F) {
	var good bytes.Buffer
	t0 := time.Date(2019, 4, 1, 8, 0, 0, 0, time.UTC)
	WriteJourneysCSV(&good, []Journey{{
		TaxiID: 1, PassengerID: 2,
		Pickup: geo.Point{Lon: 121.4, Lat: 31.2}, PickupTime: t0,
		Dropoff: geo.Point{Lon: 121.5, Lat: 31.3}, DropoffTime: t0.Add(30 * time.Minute),
	}})
	f.Add(good.Bytes())
	dirty, _ := dirtyJourneyCSV(8)
	f.Add([]byte(dirty))
	f.Add([]byte(strings.Join(journeyHeader, ",") + "\n\"bare,row\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		strictJs, _, _ := ReadJourneysCSVOptions(bytes.NewReader(data), load.Options{})
		lenientJs, stats, err := ReadJourneysCSVOptions(bytes.NewReader(data), load.Options{Lenient: true, MaxBadRows: 100})
		if err == nil && len(lenientJs) != stats.Rows {
			t.Fatalf("stats.Rows = %d but %d journeys returned", stats.Rows, len(lenientJs))
		}
		if err == nil && len(lenientJs) < len(strictJs) {
			t.Fatalf("lenient kept %d, strict kept %d", len(lenientJs), len(strictJs))
		}
	})
}
