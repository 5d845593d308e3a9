package synth

import (
	"math/rand"
	"sort"

	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// Checkin is one shared location record: the minor-category topic the
// user chose to publish.
type Checkin struct {
	Topic poi.Minor
}

// CheckinProfile models the topic selectivity of a check-in community
// (Table 1): the probability that a visit to a venue of a given major
// category is shared publicly. Sensitive topics (medical, home) have
// low acceptance; social topics (bars, food) high.
type CheckinProfile struct {
	Name       string
	Acceptance [poi.NumMajors]float64
}

// ProfileNewYork mimics the paper's New York community: bars, fitness
// and offices are shared; medical visits almost never are.
func ProfileNewYork() CheckinProfile {
	var a [poi.NumMajors]float64
	a[poi.Entertainment] = 0.9
	a[poi.Restaurant] = 0.6
	a[poi.Sports] = 0.8
	a[poi.BusinessOffice] = 0.7
	a[poi.Residence] = 0.65
	a[poi.TrafficStations] = 0.5
	a[poi.ShopMarket] = 0.45
	a[poi.Tourism] = 0.5
	a[poi.TechEducation] = 0.2
	a[poi.PublicService] = 0.1
	a[poi.AccommodationHotel] = 0.3
	a[poi.FinancialService] = 0.05
	a[poi.GovernmentAgency] = 0.03
	a[poi.Industry] = 0.02
	a[poi.MedicalService] = 0.01
	return CheckinProfile{Name: "New York", Acceptance: a}
}

// ProfileTokyo mimics the paper's Tokyo community: stations dominate,
// homes are kept secret.
func ProfileTokyo() CheckinProfile {
	var a [poi.NumMajors]float64
	a[poi.TrafficStations] = 0.95
	a[poi.Restaurant] = 0.5
	a[poi.ShopMarket] = 0.45
	a[poi.Entertainment] = 0.35
	a[poi.Tourism] = 0.3
	a[poi.BusinessOffice] = 0.15
	a[poi.Sports] = 0.15
	a[poi.TechEducation] = 0.1
	a[poi.PublicService] = 0.05
	a[poi.AccommodationHotel] = 0.1
	a[poi.FinancialService] = 0.03
	a[poi.GovernmentAgency] = 0.02
	a[poi.Industry] = 0.02
	a[poi.MedicalService] = 0.005
	a[poi.Residence] = 0.02
	return CheckinProfile{Name: "Tokyo", Acceptance: a}
}

// SampleCheckins simulates the check-in stream a biased community would
// publish from the (unbiased) taxi visits: each drop-off is resolved to
// its nearest POI within 150 m, and the visit is shared with the
// profile's acceptance probability for that POI's major category. kind
// selects the nearest-POI index backend (earlier versions hardcoded the
// grid, ignoring the pipeline's configured backend).
func (c *City) SampleCheckins(js []trajectory.Journey, profile CheckinProfile, seed int64, kind index.Kind) []Checkin {
	rng := rand.New(rand.NewSource(seed))
	locs := poi.Locations(c.POIs)
	idx := index.New(kind, locs, 100)
	var (
		out []Checkin
		buf []int
		id  int
	)
	for _, j := range js {
		id, buf = index.ClosestWithin(idx, locs, j.Dropoff, 150, buf)
		if id < 0 {
			continue
		}
		p := c.POIs[id]
		if rng.Float64() < profile.Acceptance[p.Major()] {
			out = append(out, Checkin{Topic: p.Minor})
		}
	}
	return out
}

// TopicCount is one row of a Table 1-style topic ranking.
type TopicCount struct {
	Topic poi.Minor
	Count int
	Ratio float64
}

// TopTopics ranks check-in topics by frequency, returning the top n with
// their share of all check-ins (the Table 1 statistic).
func TopTopics(cs []Checkin, n int) []TopicCount {
	counts := make(map[poi.Minor]int)
	for _, c := range cs {
		counts[c.Topic]++
	}
	out := make([]TopicCount, 0, len(counts))
	for topic, cnt := range counts {
		out = append(out, TopicCount{Topic: topic, Count: cnt})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Topic < out[b].Topic
	})
	total := float64(len(cs))
	for i := range out {
		out[i].Ratio = float64(out[i].Count) / total
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// MajorShare returns the fraction of check-ins whose topic belongs to
// the given major category.
func MajorShare(cs []Checkin, m poi.Major) float64 {
	if len(cs) == 0 {
		return 0
	}
	n := 0
	for _, c := range cs {
		if c.Topic.Major() == m {
			n++
		}
	}
	return float64(n) / float64(len(cs))
}
