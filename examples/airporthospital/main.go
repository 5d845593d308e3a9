// Airporthospital reproduces the paper's §6 closing demonstrations:
// the airport as a dominant taxi hotspot (Figure 14(g)), and hospital
// trips that GPS-based mining surfaces while biased check-in data
// hides them (Figure 14(h), the semantic-bias argument).
package main

import (
	"context"
	"fmt"
	"log"

	"csdm"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/synth"
)

func main() {
	cfg := csdm.DefaultCityConfig()
	cfg.NumPOIs = 4000
	cfg.NumPassengers = 700
	cfg.Days = 14
	city := csdm.GenerateCity(cfg)
	workload := city.GenerateWorkload()
	minerCfg := csdm.DefaultConfig()
	miner := csdm.NewMiner(city.POIs, workload.Journeys, minerCfg)

	params := csdm.DefaultMiningParams()
	params.Sigma = 25
	ctx := context.Background()
	patterns, err := miner.Mine(ctx, csdm.CSDPM, params)
	if err != nil {
		log.Fatal(err)
	}

	// Hospital flows fan out from many residential origins, so each
	// origin-hospital pair is thin; drill down with a lower threshold.
	drill := params
	drill.Sigma = 12
	drillPatterns, err := miner.Mine(ctx, csdm.CSDPM, drill)
	if err != nil {
		log.Fatal(err)
	}

	// --- Figure 14(g): the airport hotspot -------------------------
	airportTrips := 0
	for _, j := range workload.Journeys {
		if geo.Haversine(j.Pickup, city.Airport) < 500 || geo.Haversine(j.Dropoff, city.Airport) < 500 {
			airportTrips++
		}
	}
	airportPatterns, airportCoverage := 0, 0
	for _, p := range patterns {
		for _, sp := range p.Stays {
			if geo.Haversine(sp.P, city.Airport) < 500 {
				airportPatterns++
				airportCoverage += p.Support
				break
			}
		}
	}
	fmt.Println("— Airport (Figure 14(g)) —")
	fmt.Printf("trips touching the airport: %d (%.1f%% of all records)\n",
		airportTrips, 100*float64(airportTrips)/float64(len(workload.Journeys)))
	fmt.Printf("patterns anchored at the airport: %d, coverage %d\n\n",
		airportPatterns, airportCoverage)

	// --- Figure 14(h): hospital trips vs check-in bias -------------
	hospitalTrips := 0
	for _, j := range workload.Journeys {
		if geo.Haversine(j.Dropoff, city.Hospital) < 400 {
			hospitalTrips++
		}
	}
	hospitalPatterns := 0
	for _, p := range drillPatterns {
		for _, sp := range p.Stays {
			if geo.Haversine(sp.P, city.Hospital) < 400 && sp.S.Has(poi.MedicalService) {
				hospitalPatterns++
				break
			}
		}
	}
	fmt.Println("— Children's hospital (Figure 14(h)) —")
	fmt.Printf("taxi drop-offs at the hospital: %d\n", hospitalTrips)
	fmt.Printf("medical patterns mined from GPS: %d\n", hospitalPatterns)

	for _, profile := range []synth.CheckinProfile{synth.ProfileNewYork(), synth.ProfileTokyo()} {
		cs := city.SampleCheckins(workload.Journeys, profile, 99, minerCfg.Index)
		med := synth.MajorShare(cs, poi.MedicalService)
		fmt.Printf("medical share of %s-style check-ins: %.2f%% (suppressed by sharing bias)\n",
			profile.Name, med*100)
	}
	fmt.Println("\nGPS trajectories expose medical mobility that social check-in data")
	fmt.Println("systematically hides — the paper's semantic-bias argument.")
}
