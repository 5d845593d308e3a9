package poi

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"csdm/internal/geo"
	"csdm/internal/load"
)

func TestTaxonomyShape(t *testing.T) {
	if NumMajors != 15 {
		t.Fatalf("NumMajors = %d, want 15 (Table 3)", NumMajors)
	}
	if NumMinors != 98 {
		t.Fatalf("NumMinors = %d, want 98 (paper §5)", NumMinors)
	}
	// Every major has at least one minor; every minor maps to a valid major.
	var covered [NumMajors]bool
	for _, m := range Minors() {
		mj := m.Major()
		if int(mj) >= NumMajors {
			t.Fatalf("minor %v has invalid major", m)
		}
		covered[mj] = true
	}
	for i, ok := range covered {
		if !ok {
			t.Errorf("major %v has no minor categories", Major(i))
		}
	}
}

func TestMinorsOfPartition(t *testing.T) {
	total := 0
	for _, mj := range Majors() {
		ms := MinorsOf(mj)
		total += len(ms)
		for _, m := range ms {
			if m.Major() != mj {
				t.Errorf("MinorsOf(%v) returned %v with major %v", mj, m, m.Major())
			}
		}
	}
	if total != NumMinors {
		t.Fatalf("MinorsOf partitions %d minors, want %d", total, NumMinors)
	}
}

func TestMinorNamesUniqueAndResolvable(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range Minors() {
		name := m.String()
		if seen[name] {
			t.Fatalf("duplicate minor name %q", name)
		}
		seen[name] = true
		got, ok := MinorByName(name)
		if !ok || got != m {
			t.Fatalf("MinorByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := MinorByName("Nonexistent"); ok {
		t.Fatal("MinorByName should reject unknown names")
	}
}

func TestInvalidMinorAndMajorStrings(t *testing.T) {
	bad := Minor(200)
	if bad.Valid() {
		t.Fatal("Minor(200) should be invalid")
	}
	if !strings.Contains(bad.String(), "200") {
		t.Fatalf("invalid minor String = %q", bad.String())
	}
	if !strings.Contains(Major(99).String(), "99") {
		t.Fatal("invalid major should stringify with its number")
	}
}

func TestSemanticsSetOperations(t *testing.T) {
	s := SemanticsOf(Residence, Restaurant)
	if !s.Has(Residence) || !s.Has(Restaurant) || s.Has(Tourism) {
		t.Fatal("Has mismatch")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	u := s.Union(SemanticsOf(Tourism))
	if u.Count() != 3 || !u.Has(Tourism) {
		t.Fatal("Union mismatch")
	}
	if !u.Contains(s) || s.Contains(u) {
		t.Fatal("Contains mismatch")
	}
	var empty Semantics
	if !empty.IsEmpty() || !s.Contains(empty) {
		t.Fatal("empty-set behaviour mismatch")
	}
	ms := s.Majors()
	if len(ms) != 2 || ms[0] != Residence || ms[1] != Restaurant {
		t.Fatalf("Majors = %v", ms)
	}
}

func TestSemanticsContainsIsPartialOrder(t *testing.T) {
	f := func(a, b, c uint16) bool {
		sa := Semantics(a) & (1<<NumMajors - 1)
		sb := Semantics(b) & (1<<NumMajors - 1)
		sc := Semantics(c) & (1<<NumMajors - 1)
		// Reflexive.
		if !sa.Contains(sa) {
			return false
		}
		// Transitive.
		if sa.Contains(sb) && sb.Contains(sc) && !sa.Contains(sc) {
			return false
		}
		// Antisymmetric.
		if sa.Contains(sb) && sb.Contains(sa) && sa != sb {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticsCosine(t *testing.T) {
	a := SemanticsOf(Residence)
	if c := a.Cosine(a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self cosine = %v, want 1", c)
	}
	b := SemanticsOf(Restaurant)
	if c := a.Cosine(b); c != 0 {
		t.Fatalf("disjoint cosine = %v, want 0", c)
	}
	ab := SemanticsOf(Residence, Restaurant)
	want := 1 / math.Sqrt(2)
	if c := a.Cosine(ab); math.Abs(c-want) > 1e-12 {
		t.Fatalf("cosine = %v, want %v", c, want)
	}
	var empty Semantics
	if c := empty.Cosine(empty); c != 0 {
		t.Fatalf("empty cosine = %v, want 0", c)
	}
}

func TestSemanticsCosineSymmetricBounded(t *testing.T) {
	f := func(a, b uint16) bool {
		sa := Semantics(a) & (1<<NumMajors - 1)
		sb := Semantics(b) & (1<<NumMajors - 1)
		c1, c2 := sa.Cosine(sb), sb.Cosine(sa)
		return math.Abs(c1-c2) < 1e-12 && c1 >= 0 && c1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticsString(t *testing.T) {
	var empty Semantics
	if empty.String() != "∅" {
		t.Fatalf("empty String = %q", empty.String())
	}
	s := SemanticsOf(Residence, MedicalService)
	if got := s.String(); got != "Residence+Medical Service" {
		t.Fatalf("String = %q", got)
	}
}

func TestPOIAccessors(t *testing.T) {
	m, _ := MinorByName("Children Hospital")
	p := POI{ID: 7, Name: "Fudan Children's Hospital", Location: geo.Point{Lon: 121.44, Lat: 31.18}, Minor: m}
	if p.Major() != MedicalService {
		t.Fatalf("Major = %v", p.Major())
	}
	if !p.Semantics().Has(MedicalService) || p.Semantics().Count() != 1 {
		t.Fatalf("Semantics = %v", p.Semantics())
	}
	if !strings.Contains(p.String(), "Children Hospital") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestLocationsAndCategoryCount(t *testing.T) {
	ps := []POI{
		{ID: 1, Location: geo.Point{Lon: 1, Lat: 2}, Minor: MinorsOf(Residence)[0]},
		{ID: 2, Location: geo.Point{Lon: 3, Lat: 4}, Minor: MinorsOf(Residence)[1]},
		{ID: 3, Location: geo.Point{Lon: 5, Lat: 6}, Minor: MinorsOf(Tourism)[0]},
	}
	locs := Locations(ps)
	if len(locs) != 3 || locs[2] != (geo.Point{Lon: 5, Lat: 6}) {
		t.Fatalf("Locations = %v", locs)
	}
	counts := CategoryCount(ps)
	if counts[Residence] != 2 || counts[Tourism] != 1 {
		t.Fatalf("CategoryCount = %v", counts)
	}
}

func samplePOIs() []POI {
	return []POI{
		{ID: 1, Name: "Sunrise Apartments", Location: geo.Point{Lon: 121.47, Lat: 31.23}, Minor: MinorsOf(Residence)[1]},
		{ID: 2, Name: "Pudong \"Mega\" Mall, East Wing", Location: geo.Point{Lon: 121.50, Lat: 31.24}, Minor: MinorsOf(ShopMarket)[2]},
		{ID: 3, Name: "Noodle, House", Location: geo.Point{Lon: 121.48, Lat: 31.22}, Minor: MinorsOf(Restaurant)[3]},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ps := samplePOIs()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCSVOptions(&buf, load.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("round trip lost POIs: %d vs %d", len(got), len(ps))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("POI %d mismatch:\n got %+v\nwant %+v", i, got[i], ps[i])
		}
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header": "foo,name,lon,lat,minor\n",
		"bad id":     "id,name,lon,lat,minor\nx,a,1,2,Cafe\n",
		"bad lon":    "id,name,lon,lat,minor\n1,a,x,2,Cafe\n",
		"bad lat":    "id,name,lon,lat,minor\n1,a,1,x,Cafe\n",
		"bad minor":  "id,name,lon,lat,minor\n1,a,1,2,Spaceport\n",
		"bad coord":  "id,name,lon,lat,minor\n1,a,999,2,Cafe\n",
	}
	for name, data := range cases {
		if _, _, err := ReadCSVOptions(strings.NewReader(data), load.Options{}); err == nil {
			t.Errorf("%s: ReadCSVOptions accepted malformed input", name)
		}
	}
}
