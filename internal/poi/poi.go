// Package poi models Points of Interest: geographic entities carrying
// semantic properties (Definition 2). It ships the 15-major /
// 98-minor-category taxonomy of the paper's Shanghai AMAP dataset
// (Table 3), a compact bitset representation of semantic properties,
// and CSV dataset I/O.
package poi

import (
	"fmt"
	"strings"

	"csdm/internal/geo"
)

// Major is one of the 15 major semantic categories of Table 3.
type Major uint8

// The 15 major categories, ordered as in Table 3 (by descending count).
const (
	Residence Major = iota
	ShopMarket
	BusinessOffice
	Restaurant
	Entertainment
	PublicService
	TrafficStations
	TechEducation
	Sports
	GovernmentAgency
	Industry
	FinancialService
	MedicalService
	AccommodationHotel
	Tourism
	NumMajors int = iota
)

var majorNames = [NumMajors]string{
	"Residence",
	"Shop & Market",
	"Business & Office",
	"Restaurant",
	"Entertainment",
	"Public Service",
	"Traffic Stations",
	"Technology & Education",
	"Sports",
	"Government Agency",
	"Industry",
	"Financial Service",
	"Medical Service",
	"Accommodation & Hotel",
	"Tourism",
}

// String implements fmt.Stringer.
func (m Major) String() string {
	if int(m) < NumMajors {
		return majorNames[m]
	}
	return fmt.Sprintf("Major(%d)", uint8(m))
}

// Majors returns all major categories in Table 3 order.
func Majors() []Major {
	out := make([]Major, NumMajors)
	for i := range out {
		out[i] = Major(i)
	}
	return out
}

// Semantics is a semantic property s: a set of semantic tags
// (Definition 2), encoded as a bitset over the major categories. The
// containment of Definition 7 condition (iii) is set inclusion, and the
// semantic-consistency metric of Equation (11) is binary-vector cosine.
type Semantics uint16

// SemanticsOf builds a Semantics holding the given majors.
func SemanticsOf(ms ...Major) Semantics {
	var s Semantics
	for _, m := range ms {
		s = s.Add(m)
	}
	return s
}

// Add returns s with major m included.
func (s Semantics) Add(m Major) Semantics { return s | 1<<m }

// Has reports whether s includes major m.
func (s Semantics) Has(m Major) bool { return s&(1<<m) != 0 }

// Union returns the set union of s and o.
func (s Semantics) Union(o Semantics) Semantics { return s | o }

// Contains reports whether s ⊇ o.
func (s Semantics) Contains(o Semantics) bool { return s&o == o }

// IsEmpty reports whether s holds no tags.
func (s Semantics) IsEmpty() bool { return s == 0 }

// Count returns the number of tags in s.
func (s Semantics) Count() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Majors lists the majors present in s, in Table 3 order.
func (s Semantics) Majors() []Major {
	var out []Major
	for i := 0; i < NumMajors; i++ {
		if s.Has(Major(i)) {
			out = append(out, Major(i))
		}
	}
	return out
}

// Cosine returns the cosine similarity of two semantic properties viewed
// as binary tag vectors — the Cos(sp_i.s, sp_j.s) of Equation (11). Two
// empty properties have similarity 0.
func (s Semantics) Cosine(o Semantics) float64 {
	inter := (s & o).Count()
	if inter == 0 {
		return 0
	}
	na, nb := s.Count(), o.Count()
	return float64(inter) / (sqrtInt(na) * sqrtInt(nb))
}

func sqrtInt(n int) float64 {
	// n ≤ 16 here; a tiny table beats math.Sqrt in the hot metric loops.
	if n < len(sqrtTable) {
		return sqrtTable[n]
	}
	return sqrtTable[len(sqrtTable)-1]
}

var sqrtTable = [17]float64{
	0, 1, 1.4142135623730951, 1.7320508075688772, 2,
	2.23606797749979, 2.449489742783178, 2.6457513110645907, 2.8284271247461903,
	3, 3.1622776601683795, 3.3166247903554, 3.4641016151377544,
	3.605551275463989, 3.7416573867739413, 3.872983346207417, 4,
}

// String implements fmt.Stringer, listing tags joined by '+'.
func (s Semantics) String() string {
	ms := s.Majors()
	if len(ms) == 0 {
		return "∅"
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return strings.Join(names, "+")
}

// POI is a Point of Interest p^I = {id, p, s} (Definition 2). The
// semantic property is carried by the minor category; Semantics()
// exposes it at the major-category granularity the mining pipeline
// operates on.
type POI struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name"`
	Location geo.Point `json:"location"`
	Minor    Minor     `json:"minor"`
}

// Major returns the POI's major semantic category.
func (p POI) Major() Major { return p.Minor.Major() }

// Semantics returns the POI's semantic property as a one-tag set.
func (p POI) Semantics() Semantics { return SemanticsOf(p.Major()) }

// String implements fmt.Stringer.
func (p POI) String() string {
	return fmt.Sprintf("POI#%d %q %s %s", p.ID, p.Name, p.Location, p.Minor)
}

// Locations extracts the coordinate of every POI, aligned by index, for
// feeding spatial indexes.
func Locations(ps []POI) []geo.Point {
	out := make([]geo.Point, len(ps))
	for i, p := range ps {
		out[i] = p.Location
	}
	return out
}

// CategoryCount tallies POIs per major category (the Table 3 statistic).
func CategoryCount(ps []POI) [NumMajors]int {
	var counts [NumMajors]int
	for _, p := range ps {
		counts[p.Major()]++
	}
	return counts
}
