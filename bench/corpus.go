package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// corpus is a workload's generated input: the only data the benchmark
// hands to the system.
type corpus struct {
	pois     []poi.POI
	journeys []trajectory.Journey
	// stays are the journeys' pick-ups and drop-offs in canonical order
	// (core.Stays), the order every bit-identity guarantee refers to.
	stays []geo.Point
}

// Every corpus is generated from fixed synth seeds: the bench city is
// synth seed 1 (the 3022-POI city of earlier benchmark reports), and the
// country's cities are synth seeds 1–4. The run's seed redraws a GPS
// jitter of jitterMeters on every pick-up and drop-off. A seed thereby
// changes every stay a run measures, but not the city or the people in
// it, so the amount of work stays comparable from seed to seed. Letting
// the seed pick the city swings mining time 2x and peak memory 7x;
// letting it pick only the population still moves mining's peak memory
// by ±20% — no regression bound absorbs either.
const (
	benchSeed    = 1
	jitterMeters = 5 // per axis; a third of the generator's own 15 m GPS noise
)

// generateCity generates the city of synth seed synthSeed, optionally
// re-centered, with its taxi workload.
func generateCity(synthSeed int64, sc scale, center *geo.Point) (*synth.City, []trajectory.Journey) {
	cfg := synth.DefaultConfig()
	cfg.Seed = synthSeed
	cfg.NumPOIs = sc.POIs
	cfg.NumPassengers = sc.Passengers
	cfg.Days = sc.Days
	if center != nil {
		cfg.Center = *center
	}
	city := synth.NewCity(cfg)
	return city, city.GenerateWorkload().Journeys
}

// jitter moves every pick-up and drop-off by an isotropic Gaussian of
// jitterMeters per axis, drawn from rng.
func jitter(js []trajectory.Journey, proj geo.Projection, rng *rand.Rand) {
	move := func(p geo.Point) geo.Point {
		m := proj.ToMeters(p)
		m.X += rng.NormFloat64() * jitterMeters
		m.Y += rng.NormFloat64() * jitterMeters
		return geo.Clamp(proj.ToPoint(m))
	}
	for i := range js {
		js[i].Pickup = move(js[i].Pickup)
		js[i].Dropoff = move(js[i].Dropoff)
	}
}

// cityCorpus generates the bench city with the jitter of seed.
func cityCorpus(seed int64, sc scale) corpus {
	city, js := generateCity(benchSeed, sc, nil)
	jitter(js, city.Proj, rand.New(rand.NewSource(seed)))
	return corpus{pois: city.POIs, journeys: js, stays: core.Stays(js)}
}

// countryCorpus lays sc.Cities cities on a near-square grid sc.Spacing
// degrees apart, city i from synth seed benchSeed+i, jitters them with
// seed, and concatenates them. POI, taxi and passenger ids are offset
// per city so two commuters in different cities never alias.
func countryCorpus(seed int64, sc scale) corpus {
	const idStride = 10_000_000
	cols := 1
	for cols*cols < sc.Cities {
		cols++
	}
	base := synth.DefaultConfig().Center
	rng := rand.New(rand.NewSource(seed))
	var c corpus
	for i := 0; i < sc.Cities; i++ {
		center := geo.Point{
			Lon: base.Lon + float64(i%cols)*sc.Spacing,
			Lat: base.Lat + float64(i/cols)*sc.Spacing,
		}
		city, js := generateCity(benchSeed+int64(i), sc, &center)
		jitter(js, city.Proj, rng)
		off := int64(i) * idStride
		for _, p := range city.POIs {
			p.ID += off
			c.pois = append(c.pois, p)
		}
		for _, j := range js {
			j.TaxiID += off
			j.PassengerID += off
			c.journeys = append(c.journeys, j)
		}
	}
	c.stays = core.Stays(c.journeys)
	return c
}

// digest fingerprints the corpus, so a report shows which inputs it
// measured and tests can tell two seeds' corpora apart.
func (c corpus) digest() string {
	h := sha256.New()
	var b []byte
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	i := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	for _, p := range c.pois {
		i(p.ID)
		f(p.Location.Lon)
		f(p.Location.Lat)
		i(int64(p.Minor))
	}
	for _, j := range c.journeys {
		i(j.TaxiID)
		i(j.PassengerID)
		f(j.Pickup.Lon)
		f(j.Pickup.Lat)
		i(j.PickupTime.UnixNano())
		f(j.Dropoff.Lon)
		f(j.Dropoff.Lat)
		i(j.DropoffTime.UnixNano())
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// payload returns a diagram's .csdf serialization with its generation
// lineage zeroed, so diagrams of different generations compare by
// content.
func payload(d *csd.Diagram) ([]byte, error) {
	c := *d
	c.Generation, c.ParentGeneration = 0, 0
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
