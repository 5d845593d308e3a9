// Command genworkload generates a synthetic Shanghai-like dataset — a
// POI file and a taxi-journey log — in the exchange formats the
// csdminer tool consumes.
//
// Usage:
//
//	genworkload [-pois N] [-passengers N] [-days N] [-seed N]
//	            [-poi-out pois.csv] [-journeys-out journeys.csv]
//	            [-scenario batch|stream] [-base-fraction 0.8]
//	            [-stream-out stream.csv]
//
// The default "batch" scenario writes the whole journey log to one
// file. The "stream" scenario models streaming ingestion: the journeys
// are sorted by pickup time and split at -base-fraction — the early
// portion goes to -journeys-out (the batch log that mines the base
// snapshot) and the late portion to -stream-out (the time-ordered
// stream `csdminer ingest` applies as delta batches), so the ingestion
// path has a reproducible synthetic workload.
//
// The "country" scenario lays -cities independent cities on a grid,
// -city-spacing degrees apart, each generated with its own seed and
// the per-city -pois/-passengers/-days sizes, and concatenates their
// POI and journey files (ids offset per city so they stay unique).
// The result is the geo-sharded pipeline's natural workload: a corpus
// whose extent spans many tiles, with dense cities separated by empty
// countryside.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"csdm/internal/ckpt"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// exitUsage is the exit code of a bad command line, which is rejected
// before anything is generated or written.
const exitUsage = 2

func main() {
	log.SetFlags(0)
	log.SetPrefix("genworkload: ")
	var (
		nPOIs       = flag.Int("pois", 6000, "POI dataset size")
		nPassengers = flag.Int("passengers", 1000, "commuter population")
		days        = flag.Int("days", 14, "simulated days (starting on a Monday)")
		seed        = flag.Int64("seed", 1, "generator seed")
		poiOut      = flag.String("poi-out", "pois.csv", "POI output file")
		journeyOut  = flag.String("journeys-out", "journeys.csv", "journey output file (stream scenario: the base portion)")
		scenario    = flag.String("scenario", "batch", "workload shape: batch (one journey log), stream (time-split base + delta stream) or country (a grid of cities)")
		baseFrac    = flag.Float64("base-fraction", 0.8, "stream scenario: share of the time-ordered journeys in the base file")
		streamOut   = flag.String("stream-out", "stream.csv", "stream scenario: delta stream output file")
		nCities     = flag.Int("cities", 4, "country scenario: number of cities on the grid (per-city sizes come from -pois/-passengers/-days)")
		spacing     = flag.Float64("city-spacing", 0.15, "country scenario: degrees between adjacent city centers")
	)
	flag.Parse()

	cfg := synth.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumPOIs = *nPOIs
	cfg.NumPassengers = *nPassengers
	cfg.Days = *days

	usage := func(format string, args ...any) {
		log.Printf(format, args...)
		os.Exit(exitUsage)
	}
	// Each scenario checks its own parameters here, so a bad command
	// line exits before any output file is touched.
	var run func() error
	switch *scenario {
	case "batch":
		run = func() error { return runBatch(cfg, *poiOut, *journeyOut) }
	case "stream":
		if *baseFrac <= 0 || *baseFrac >= 1 {
			usage("-base-fraction must be in (0,1), got %g", *baseFrac)
		}
		run = func() error { return runStream(cfg, *baseFrac, *poiOut, *journeyOut, *streamOut) }
	case "country":
		if *nCities < 1 {
			usage("-cities must be at least 1, got %d", *nCities)
		}
		if *spacing <= 0 {
			usage("-city-spacing must be positive, got %g", *spacing)
		}
		run = func() error { return runCountry(cfg, *nCities, *spacing, *poiOut, *journeyOut) }
	default:
		usage("unknown -scenario %q (want batch, stream or country)", *scenario)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// runBatch writes one city's POIs and its whole journey log.
func runBatch(cfg synth.Config, poiOut, journeyOut string) error {
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	if err := writeCSVs(city.POIs, poiOut, w.Journeys, journeyOut); err != nil {
		return err
	}
	fmt.Printf("wrote %d POIs to %s and %d journeys to %s (mean trip %.1f min)\n",
		len(city.POIs), poiOut, len(w.Journeys), journeyOut, synth.MeanTripMinutes(w.Journeys))
	return nil
}

// runStream sorts one city's journeys by pickup time and splits them at
// baseFrac into a base log and a delta stream.
func runStream(cfg synth.Config, baseFrac float64, poiOut, journeyOut, streamOut string) error {
	city := synth.NewCity(cfg)
	js := city.GenerateWorkload().Journeys
	sort.SliceStable(js, func(i, k int) bool { return js[i].PickupTime.Before(js[k].PickupTime) })
	split := int(float64(len(js)) * baseFrac)
	if split < 1 || split >= len(js) {
		return fmt.Errorf("-base-fraction %g leaves an empty base or stream (%d journeys)", baseFrac, len(js))
	}
	if err := writeCSVs(city.POIs, poiOut, js[:split], journeyOut); err != nil {
		return err
	}
	if err := writeJourneys(streamOut, js[split:]); err != nil {
		return err
	}
	fmt.Printf("wrote %d POIs to %s, %d base journeys to %s, %d stream journeys to %s (split at %s)\n",
		len(city.POIs), poiOut, split, journeyOut, len(js)-split, streamOut,
		js[split].PickupTime.Format("2006-01-02 15:04"))
	return nil
}

// runCountry generates -cities independent cities on a near-square
// grid and concatenates their datasets. Each city gets its own seed
// (base seed + index) and center; POI, passenger and taxi ids are
// offset per city so the concatenation stays collision-free — pattern
// mining groups journeys by passenger, and two commuters in different
// cities must never alias.
func runCountry(cfg synth.Config, cities int, spacing float64, poiOut, journeyOut string) error {
	cols := 1
	for cols*cols < cities {
		cols++
	}
	base := cfg.Center
	if base == (geo.Point{}) {
		base = synth.DefaultConfig().Center
	}
	const idStride = 10_000_000
	var pois []poi.POI
	var journeys []trajectory.Journey
	for i := 0; i < cities; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		c.Center = geo.Point{
			Lon: base.Lon + float64(i%cols)*spacing,
			Lat: base.Lat + float64(i/cols)*spacing,
		}
		city := synth.NewCity(c)
		w := city.GenerateWorkload()
		off := int64(i) * idStride
		for _, p := range city.POIs {
			p.ID += off
			pois = append(pois, p)
		}
		for _, j := range w.Journeys {
			j.TaxiID += off
			j.PassengerID += off
			journeys = append(journeys, j)
		}
	}
	if err := writeCSVs(pois, poiOut, journeys, journeyOut); err != nil {
		return err
	}
	fmt.Printf("wrote %d POIs to %s and %d journeys to %s (%d cities on a %d-wide grid, %.2f° apart)\n",
		len(pois), poiOut, len(journeys), journeyOut, cities, cols, spacing)
	return nil
}

// writeCSVs writes the POI file and the journey file, each atomically:
// a failed write leaves the old file or none, never a truncated one.
func writeCSVs(ps []poi.POI, poiPath string, js []trajectory.Journey, journeyPath string) error {
	if err := ckpt.WriteAtomic(poiPath, func(w io.Writer) error { return poi.WriteCSV(w, ps) }); err != nil {
		return err
	}
	return writeJourneys(journeyPath, js)
}

// writeJourneys writes one journey file atomically.
func writeJourneys(path string, js []trajectory.Journey) error {
	return ckpt.WriteAtomic(path, func(w io.Writer) error { return trajectory.WriteJourneysCSV(w, js) })
}
