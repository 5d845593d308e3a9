package poi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"csdm/internal/geo"
	"csdm/internal/load"
	"csdm/internal/obs"
)

// dirtyPOICSV builds a CSV with good rows interleaved with one bad row
// of each flavor, returning the text and the expected reason counts.
func dirtyPOICSV(good int) (string, map[string]int) {
	var b strings.Builder
	b.WriteString("id,name,lon,lat,minor\n")
	bad := map[string]int{}
	writeBad := func(row, reason string) {
		b.WriteString(row + "\n")
		bad[reason]++
	}
	for i := 0; i < good; i++ {
		fmt.Fprintf(&b, "%d,poi %d,121.%02d,31.%02d,Chinese Restaurant\n", i, i, i%100, i%100)
		switch i {
		case 1:
			writeBad("notanid,x,121.4,31.2,Chinese Restaurant", "id")
		case 3:
			writeBad("900,x,NaN,31.2,Chinese Restaurant", "coord-nan")
		case 5:
			writeBad("901,x,+Inf,31.2,Chinese Restaurant", "coord-inf")
		case 7:
			writeBad("902,x,200,31.2,Chinese Restaurant", "coord-lon-range")
		case 9:
			writeBad("903,x,121.4,95,Chinese Restaurant", "coord-lat-range")
		case 11:
			writeBad("904,x,abc,31.2,Chinese Restaurant", "coord-syntax")
		case 13:
			writeBad("905,x,121.4,31.2,no-such-category", "category")
		case 15:
			writeBad("906,x,121.4", "csv") // wrong field count
		}
	}
	return b.String(), bad
}

func TestReadCSVLenientSkipsAndCounts(t *testing.T) {
	text, wantBad := dirtyPOICSV(40)
	tr := obs.New()
	ps, stats, err := ReadCSVOptions(strings.NewReader(text), load.Options{Lenient: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 40 || stats.Rows != 40 {
		t.Fatalf("kept %d rows (stats %d), want 40", len(ps), stats.Rows)
	}
	for reason, want := range wantBad {
		if got := stats.Skipped[reason]; got != want {
			t.Errorf("skipped[%s] = %d, want %d", reason, got, want)
		}
		if got := tr.Counter("load.poi.skipped." + reason); got != int64(want) {
			t.Errorf("counter load.poi.skipped.%s = %d, want %d", reason, got, want)
		}
	}
	if got, want := stats.TotalSkipped(), len(wantBad); got != want {
		t.Fatalf("TotalSkipped = %d, want %d: %v", got, want, stats.Skipped)
	}
	if got := tr.Counter("load.poi.rows"); got != 40 {
		t.Fatalf("counter load.poi.rows = %d", got)
	}
}

func TestReadCSVStrictStillFailsFast(t *testing.T) {
	text, _ := dirtyPOICSV(40)
	if _, _, err := ReadCSVOptions(strings.NewReader(text), load.Options{}); err == nil {
		t.Fatal("strict mode accepted a dirty file")
	}
}

func TestReadCSVBadRowBudget(t *testing.T) {
	text, wantBad := dirtyPOICSV(40)
	nBad := 0
	for _, c := range wantBad {
		nBad += c
	}
	// A budget one below the damage fails; at the damage it passes.
	_, _, err := ReadCSVOptions(strings.NewReader(text), load.Options{Lenient: true, MaxBadRows: nBad - 1})
	if !errors.Is(err, load.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	_, stats, err := ReadCSVOptions(strings.NewReader(text), load.Options{Lenient: true, MaxBadRows: nBad})
	if err != nil || stats.TotalSkipped() != nBad {
		t.Fatalf("at-budget load: skipped %d, err %v", stats.TotalSkipped(), err)
	}
}

// FuzzReadPOICSV pins the loader against arbitrary input in both
// strict and lenient modes: an error or a row set, never a panic or a
// hang, and lenient never keeps fewer rows than strict accepts.
func FuzzReadPOICSV(f *testing.F) {
	var good bytes.Buffer
	restaurant, _ := MinorByName("Chinese Restaurant")
	clinic, _ := MinorByName("Clinic")
	WriteCSV(&good, []POI{
		{ID: 1, Name: "a", Location: geo.Point{Lon: 121.4, Lat: 31.2}, Minor: restaurant},
		{ID: 2, Name: "b", Location: geo.Point{Lon: 121.5, Lat: 31.3}, Minor: clinic},
	})
	f.Add(good.Bytes())
	dirty, _ := dirtyPOICSV(10)
	f.Add([]byte(dirty))
	f.Add([]byte("id,name,lon,lat,minor\n1,\"unterminated,121,31,restaurant\n"))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		strictPs, _, _ := ReadCSVOptions(bytes.NewReader(data), load.Options{})
		lenientPs, stats, err := ReadCSVOptions(bytes.NewReader(data), load.Options{Lenient: true, MaxBadRows: 100})
		if err == nil && len(lenientPs) != stats.Rows {
			t.Fatalf("stats.Rows = %d but %d rows returned", stats.Rows, len(lenientPs))
		}
		if err == nil && len(lenientPs) < len(strictPs) {
			t.Fatalf("lenient kept %d rows, strict kept %d", len(lenientPs), len(strictPs))
		}
	})
}
