package pattern

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

func samplePatterns() []Pattern {
	t0 := time.Date(2024, 3, 1, 8, 30, 0, 0, time.UTC)
	sem := poi.SemanticsOf(poi.ShopMarket)
	return []Pattern{
		{
			Stays: []trajectory.StayPoint{
				{P: geo.Point{Lon: 121.47, Lat: 31.23}, T: t0, S: sem},
				{P: geo.Point{Lon: 121.48, Lat: 31.24}, T: t0.Add(time.Hour), S: sem},
			},
			Items:   []poi.Semantics{sem, sem},
			Support: 7,
		},
		{
			Stays:   []trajectory.StayPoint{{P: geo.Point{Lon: 121.50, Lat: 31.20}, T: t0}},
			Items:   []poi.Semantics{sem},
			Support: 3,
		},
	}
}

func TestPatternJSONRoundTrip(t *testing.T) {
	want := samplePatterns()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d patterns, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Support != want[i].Support {
			t.Errorf("pattern %d support = %d, want %d", i, got[i].Support, want[i].Support)
		}
		if len(got[i].Stays) != len(want[i].Stays) {
			t.Fatalf("pattern %d stays = %d, want %d", i, len(got[i].Stays), len(want[i].Stays))
		}
		for k := range want[i].Stays {
			if got[i].Stays[k].P != want[i].Stays[k].P {
				t.Errorf("pattern %d stay %d point = %v, want %v", i, k, got[i].Stays[k].P, want[i].Stays[k].P)
			}
			if !got[i].Stays[k].T.Equal(want[i].Stays[k].T) {
				t.Errorf("pattern %d stay %d time = %v, want %v", i, k, got[i].Stays[k].T, want[i].Stays[k].T)
			}
			if got[i].Stays[k].S != want[i].Stays[k].S {
				t.Errorf("pattern %d stay %d semantics = %v, want %v", i, k, got[i].Stays[k].S, want[i].Stays[k].S)
			}
		}
		if len(got[i].Items) != len(want[i].Items) {
			t.Errorf("pattern %d items = %d, want %d", i, len(got[i].Items), len(want[i].Items))
		}
		// Groups are deliberately not persisted.
		if got[i].Groups != nil {
			t.Errorf("pattern %d Groups survived serialization", i)
		}
	}
}

func TestPatternJSONEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d patterns from an empty set", len(got))
	}
}

func TestPatternJSONRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", `{{{`},
		{"wrong version", `{"version":99,"patterns":[]}`},
		{"no stays", `{"version":1,"patterns":[{"stays":[],"support":1}]}`},
		{"negative support", `{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23}}],"items":[1],"support":-1}]}`},
		{"nan-free but out of range", `{"version":1,"patterns":[{"stays":[{"p":{"lon":999,"lat":31.23}}],"items":[1],"support":1}]}`},
		{"fewer items than stays", `{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23}},{"p":{"lon":121.48,"lat":31.24}}],"items":[1],"support":2}]}`},
		{"more items than stays", `{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23}}],"items":[1,2],"support":2}]}`},
		{"no items", `{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23}}],"support":2}]}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadJSON accepted corrupt input", tc.name)
		}
	}
}

// samePatterns reports whether two pattern sets agree on everything
// WriteJSON persists: stays (times by instant), items and support.
func samePatterns(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Support != b[i].Support || len(a[i].Stays) != len(b[i].Stays) || !slices.Equal(a[i].Items, b[i].Items) {
			return false
		}
		for k, sp := range a[i].Stays {
			o := b[i].Stays[k]
			if sp.P != o.P || sp.S != o.S || !sp.T.Equal(o.T) {
				return false
			}
		}
	}
	return true
}

// FuzzReadPatternsJSON pins the pattern-file reader contract on
// arbitrary bytes: ReadJSON never panics, an accepted set holds one
// item per stay and only valid coordinates, and writing it back and
// reading it again gives the same set.
func FuzzReadPatternsJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, samplePatterns()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 1, 12, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range ps {
			if len(p.Items) != len(p.Stays) {
				t.Fatalf("pattern %d: %d items for %d stays", i, len(p.Items), len(p.Stays))
			}
			for k, sp := range p.Stays {
				if err := sp.P.Check(); err != nil {
					t.Fatalf("pattern %d stay %d: %v", i, k, err)
				}
			}
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, ps); err != nil {
			t.Fatalf("accepted set does not write back: %v", err)
		}
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("written set does not read back: %v", err)
		}
		if !samePatterns(ps, again) {
			t.Fatal("write-read round trip changed the pattern set")
		}
	})
}
