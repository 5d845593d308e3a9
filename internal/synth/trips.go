package synth

import (
	"math/rand"
	"time"

	"csdm/internal/geo"
	"csdm/internal/trajectory"
)

// Passenger is one simulated commuter with stable activity anchors.
type Passenger struct {
	ID      int64 // 0 for anonymous (no payment card)
	Home    geo.Point
	Work    geo.Point
	Leisure geo.Point
}

// taxiSpeedMPS is the assumed average taxi speed (~14 km/h in downtown
// congestion); together with the city extent it yields the paper's
// ~30-minute mean trip, and with it the paper's observation that a
// δ_t below 30 minutes filters out many patterns (Figure 13).
const taxiSpeedMPS = 4.5

// startDate is the first simulated day — Monday, 2015-04-06, inside the
// paper's collection month.
var startDate = time.Date(2015, 4, 6, 0, 0, 0, 0, time.UTC)

// Workload is the generated taxi log plus the ground truth behind it.
type Workload struct {
	Journeys   []trajectory.Journey
	Passengers []Passenger
}

// StayPoints extracts every pick-up and drop-off as a stay point — the
// paper uses them as stay points directly (§5, Figure 8). The result
// feeds POI-popularity estimation.
func (w Workload) StayPoints() []trajectory.StayPoint {
	out := make([]trajectory.StayPoint, 0, 2*len(w.Journeys))
	for _, j := range w.Journeys {
		out = append(out, j.StayPoints()...)
	}
	return out
}

// GenerateWorkload simulates the configured number of passengers over
// the configured number of days and returns their taxi journeys.
func (c *City) GenerateWorkload() Workload {
	rng := rand.New(rand.NewSource(c.Seed + 7919))
	w := Workload{}

	// Build the population. Card passengers get stable non-zero IDs.
	nCard := int(float64(c.NumPassengers) * c.CardShare)
	for i := 0; i < c.NumPassengers; i++ {
		p := Passenger{
			Home:    c.anchorNear(rng, c.HomeSites),
			Work:    c.anchorNear(rng, c.WorkSites),
			Leisure: c.anchorNear(rng, c.LeisureSites),
		}
		if i < nCard {
			p.ID = int64(i + 1)
		}
		w.Passengers = append(w.Passengers, p)
	}

	var taxi int64 = 1
	for day := 0; day < c.Days; day++ {
		date := startDate.AddDate(0, 0, day)
		weekend := date.Weekday() == time.Saturday || date.Weekday() == time.Sunday
		for _, p := range w.Passengers {
			legs := c.simulateDay(rng, p, weekend)
			for _, l := range legs {
				j := c.makeJourney(rng, taxi, p.ID, l.from, l.to, date, l.departMin)
				w.Journeys = append(w.Journeys, j)
				taxi++
			}
		}
		// Background traffic: irregular one-off rides between random
		// sites. They carry no repeated pattern but spread popularity
		// along the whole city, as citywide taxi activity does.
		nBg := int(float64(c.NumPassengers) * 0.4)
		for b := 0; b < nBg; b++ {
			from := c.randomSiteStop(rng)
			to := c.randomSiteStop(rng)
			dep := 6*60 + rng.Float64()*16*60
			j := c.makeJourney(rng, taxi, 0, from, to, date, dep)
			w.Journeys = append(w.Journeys, j)
			taxi++
		}
	}
	return w
}

// randomSiteStop draws a curb-side location near a random site.
func (c *City) randomSiteStop(rng *rand.Rand) geo.Point {
	s := c.Sites[rng.Intn(len(c.Sites))]
	m := c.Proj.ToMeters(s.Center)
	m.X += rng.NormFloat64() * 60
	m.Y += rng.NormFloat64() * 60
	return c.Proj.ToPoint(m)
}

// anchorNear picks a site from pool (popularity-skewed toward the first
// entries) and offsets it by a stable ~25 m to form a personal anchor.
func (c *City) anchorNear(rng *rand.Rand, pool []int) geo.Point {
	if len(pool) == 0 {
		return c.Center
	}
	// Squaring the uniform skews toward low indices: popular sites.
	idx := pool[int(rng.Float64()*rng.Float64()*float64(len(pool)))]
	m := c.Proj.ToMeters(c.Sites[idx].Center)
	m.X += rng.NormFloat64() * 15
	m.Y += rng.NormFloat64() * 15
	return c.Proj.ToPoint(m)
}

// leg is one planned taxi ride.
type leg struct {
	from, to  geo.Point
	departMin float64 // minutes after midnight
}

// simulateDay plans a passenger's taxi legs for one day. Weekdays are
// regular (commute + evening activity); weekends are sparse and
// irregular (§6, Figure 14).
func (c *City) simulateDay(rng *rand.Rand, p Passenger, weekend bool) []leg {
	var legs []leg
	jitter := func(center, spread float64) float64 { return center + rng.NormFloat64()*spread }

	if !weekend {
		// Morning commute, 7:30–9:00.
		if rng.Float64() < 0.8 {
			legs = append(legs, leg{from: p.Home, to: p.Work, departMin: jitter(8*60, 25)})
		}
		// Evening: direct home, or via leisure/shopping (card-linked
		// passengers thereby produce ≥3-stay chains).
		switch r := rng.Float64(); {
		case r < 0.45:
			legs = append(legs, leg{from: p.Work, to: p.Home, departMin: jitter(18*60, 30)})
		case r < 0.75:
			dep := jitter(18*60, 25)
			legs = append(legs, leg{from: p.Work, to: p.Leisure, departMin: dep})
			legs = append(legs, leg{from: p.Leisure, to: p.Home, departMin: dep + 90 + rng.Float64()*60})
		}
		// Occasional airport run (the Figure 14(g) hotspot).
		if rng.Float64() < 0.08 {
			legs = append(legs, leg{from: p.Home, to: c.Airport, departMin: jitter(10*60, 120)})
		}
		// Occasional hospital visit (the Figure 14(h) pattern — present
		// in GPS data, suppressed in check-ins).
		if rng.Float64() < 0.025 {
			dep := jitter(9*60+30, 60)
			legs = append(legs, leg{from: p.Home, to: c.Hospital, departMin: dep})
			legs = append(legs, leg{from: c.Hospital, to: p.Home, departMin: dep + 100 + rng.Float64()*40})
		}
	} else {
		// Weekend: sparse, irregular leisure.
		if rng.Float64() < 0.45 {
			dep := 9*60 + rng.Float64()*11*60 // any time 9:00–20:00
			dest := p.Leisure
			if rng.Float64() < 0.4 {
				dest = c.anchorNear(rng, c.LeisureSites) // somewhere new
			}
			legs = append(legs, leg{from: p.Home, to: dest, departMin: dep})
			if rng.Float64() < 0.7 {
				legs = append(legs, leg{from: dest, to: p.Home, departMin: dep + 120 + rng.Float64()*120})
			}
		}
		if rng.Float64() < 0.05 {
			legs = append(legs, leg{from: p.Home, to: c.Airport, departMin: 8*60 + rng.Float64()*10*60})
		}
	}
	return legs
}

// makeJourney materializes a leg into a journey record with GPS noise
// and a distance-derived duration.
func (c *City) makeJourney(rng *rand.Rand, taxi, passenger int64, from, to geo.Point, date time.Time, departMin float64) trajectory.Journey {
	if departMin < 0 {
		departMin = 0
	}
	if departMin > 23.5*60 {
		departMin = 23.5 * 60
	}
	pickup := date.Add(time.Duration(departMin * float64(time.Minute)))
	dist := geo.Haversine(from, to)
	travel := dist/taxiSpeedMPS*(0.9+rng.Float64()*0.3) + 120 // seconds
	dropoff := pickup.Add(time.Duration(travel * float64(time.Second)))
	return trajectory.Journey{
		TaxiID:      taxi,
		PassengerID: passenger,
		Pickup:      c.noisy(rng, from),
		PickupTime:  pickup,
		Dropoff:     c.noisy(rng, to),
		DropoffTime: dropoff,
	}
}

// noisy applies the configured Gaussian GPS error to a coordinate,
// clamped so even extreme noise draws stay legal WGS84 coordinates.
func (c *City) noisy(rng *rand.Rand, p geo.Point) geo.Point {
	if c.GPSNoiseMeters <= 0 {
		return p
	}
	m := c.Proj.ToMeters(p)
	m.X += rng.NormFloat64() * c.GPSNoiseMeters
	m.Y += rng.NormFloat64() * c.GPSNoiseMeters
	return geo.Clamp(c.Proj.ToPoint(m))
}

// MeanTripMinutes reports the mean journey duration of a workload; the
// paper observes ~30 minutes for Shanghai taxis.
func MeanTripMinutes(js []trajectory.Journey) float64 {
	if len(js) == 0 {
		return 0
	}
	var sum float64
	for _, j := range js {
		sum += j.DropoffTime.Sub(j.PickupTime).Minutes()
	}
	return sum / float64(len(js))
}
