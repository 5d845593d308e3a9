package trajectory

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"csdm/internal/load"
	"csdm/internal/poi"
)

func sampleJourneys() []Journey {
	return []Journey{
		{TaxiID: 1, PassengerID: 42, Pickup: at(0, 0), PickupTime: t0, Dropoff: at(8000, 0), DropoffTime: t0.Add(30 * time.Minute)},
		{TaxiID: 2, PassengerID: 0, Pickup: at(100, 200), PickupTime: t0.Add(time.Hour), Dropoff: at(-3000, 400), DropoffTime: t0.Add(80 * time.Minute)},
	}
}

func TestJourneysCSVRoundTrip(t *testing.T) {
	js := sampleJourneys()
	var buf bytes.Buffer
	if err := WriteJourneysCSV(&buf, js); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJourneysCSVOptions(&buf, load.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(js) {
		t.Fatalf("round trip lost journeys")
	}
	for i := range js {
		if got[i].TaxiID != js[i].TaxiID || got[i].PassengerID != js[i].PassengerID {
			t.Fatalf("journey %d id mismatch", i)
		}
		if !got[i].PickupTime.Equal(js[i].PickupTime) || !got[i].DropoffTime.Equal(js[i].DropoffTime) {
			t.Fatalf("journey %d time mismatch", i)
		}
		if got[i].Pickup != js[i].Pickup || got[i].Dropoff != js[i].Dropoff {
			t.Fatalf("journey %d location mismatch", i)
		}
	}
}

func TestJourneysCSVRejectsMalformed(t *testing.T) {
	valid := "taxi_id,passenger_id,pickup_lon,pickup_lat,pickup_time,dropoff_lon,dropoff_lat,dropoff_time\n"
	cases := map[string]string{
		"bad header":     "x,passenger_id,pickup_lon,pickup_lat,pickup_time,dropoff_lon,dropoff_lat,dropoff_time\n",
		"bad taxi":       valid + "x,0,121,31,2015-04-06T08:00:00Z,121,31,2015-04-06T09:00:00Z\n",
		"bad time":       valid + "1,0,121,31,yesterday,121,31,2015-04-06T09:00:00Z\n",
		"bad coord":      valid + "1,0,999,31,2015-04-06T08:00:00Z,121,31,2015-04-06T09:00:00Z\n",
		"reversed times": valid + "1,0,121,31,2015-04-06T09:00:00Z,121,31,2015-04-06T08:00:00Z\n",
	}
	for name, data := range cases {
		if _, _, err := ReadJourneysCSVOptions(strings.NewReader(data), load.Options{}); err == nil {
			t.Errorf("%s: accepted malformed input", name)
		}
	}
}

func TestSemanticJSONRoundTrip(t *testing.T) {
	sts := []SemanticTrajectory{
		mkST(1, []poi.Semantics{office, home}, [][2]float64{{0, 0}, {5000, 0}}, time.Hour),
		mkST(2, []poi.Semantics{restaurant}, [][2]float64{{100, 100}}, time.Hour),
	}
	var buf bytes.Buffer
	if err := WriteSemanticJSON(&buf, sts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSemanticJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Len() != 2 || got[1].Len() != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got[0].Stays[1].S != home {
		t.Fatalf("semantics lost in round trip")
	}
	if !got[0].Stays[0].T.Equal(sts[0].Stays[0].T) {
		t.Fatalf("timestamps lost in round trip")
	}
}

func TestSemanticJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadSemanticJSON(strings.NewReader(`[{"id":1,"stays":[{"p":{"lon":999,"lat":0}}]}]`)); err == nil {
		t.Error("accepted invalid stay location")
	}
	if _, err := ReadSemanticJSON(strings.NewReader(`[`)); err == nil {
		t.Error("accepted truncated JSON")
	}
}

func TestStreamJourneysCSV(t *testing.T) {
	js := sampleJourneys()
	var buf bytes.Buffer
	if err := WriteJourneysCSV(&buf, js); err != nil {
		t.Fatal(err)
	}
	var got []Journey
	stats, err := StreamJourneysCSV(&buf, load.Options{}, func(j Journey) error {
		got = append(got, j)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != len(js) || len(got) != len(js) {
		t.Fatalf("streamed %d rows (stats %d), want %d", len(got), stats.Rows, len(js))
	}
	for i := range js {
		if got[i].Pickup != js[i].Pickup || got[i].Dropoff != js[i].Dropoff {
			t.Fatalf("journey %d location mismatch", i)
		}
	}

	// A callback error aborts the stream and surfaces unchanged.
	if err := WriteJourneysCSV(&buf, js); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	n := 0
	_, err = StreamJourneysCSV(&buf, load.Options{}, func(Journey) error {
		n++
		return sentinel
	})
	if !errors.Is(err, sentinel) || n != 1 {
		t.Fatalf("callback abort: err = %v after %d rows, want sentinel after 1", err, n)
	}

	// Lenient mode skips damage and keeps streaming, like the
	// materializing reader.
	valid := "taxi_id,passenger_id,pickup_lon,pickup_lat,pickup_time,dropoff_lon,dropoff_lat,dropoff_time\n"
	data := valid +
		"1,0,121,31,2015-04-06T08:00:00Z,121,31,2015-04-06T09:00:00Z\n" +
		"x,0,121,31,2015-04-06T08:00:00Z,121,31,2015-04-06T09:00:00Z\n" +
		"2,0,121,31,2015-04-06T08:00:00Z,121,31,2015-04-06T09:00:00Z\n"
	n = 0
	stats, err = StreamJourneysCSV(strings.NewReader(data), load.Options{Lenient: true}, func(Journey) error {
		n++
		return nil
	})
	if err != nil || n != 2 || stats.Rows != 2 || stats.TotalSkipped() != 1 {
		t.Fatalf("lenient stream: n=%d stats=%v err=%v", n, stats, err)
	}
}
