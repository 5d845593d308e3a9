// Quickstart: generate a small synthetic city, build the City Semantic
// Diagram, mine fine-grained mobility patterns with Pervasive Miner
// (CSD-PM) and print the strongest ones.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"csdm"
)

func main() {
	// A small city: ~3000 POIs, 400 commuters, one simulated week.
	cfg := csdm.DefaultCityConfig()
	cfg.NumPOIs = 3000
	cfg.NumPassengers = 400
	cfg.Days = 7
	city := csdm.GenerateCity(cfg)
	workload := city.GenerateWorkload()
	fmt.Printf("city: %d POIs; workload: %d taxi journeys\n",
		len(city.POIs), len(workload.Journeys))

	// The miner builds the City Semantic Diagram lazily on first use.
	miner := csdm.NewMiner(city.POIs, workload.Journeys, csdm.DefaultConfig())
	ctx := context.Background()
	d, err := miner.Diagram(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSD: %d fine-grained semantic units, %.0f%% POI coverage, %.3f mean purity\n",
		len(d.Units), d.Coverage()*100, d.MeanUnitPurity())

	// Ask the diagram about a location (Algorithm 3's voting).
	hospital, err := miner.Recognize(ctx, city.Hospital)
	if err != nil {
		log.Fatal(err)
	}
	airport, err := miner.Recognize(ctx, city.Airport)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("semantics at the hospital: %s\n", hospital)
	fmt.Printf("semantics at the airport:  %s\n", airport)

	// Mine fine-grained patterns. σ is scaled to the small workload.
	params := csdm.DefaultMiningParams()
	params.Sigma = 25
	patterns, err := miner.Mine(ctx, csdm.CSDPM, params)
	if err != nil {
		log.Fatal(err)
	}
	s := csdm.Summarize(patterns)
	fmt.Printf("\nCSD-PM: %d patterns, coverage %d, avg sparsity %.1f m, avg consistency %.3f\n",
		s.NumPatterns, s.Coverage, s.MeanSparsity, s.MeanConsistency)

	sort.Slice(patterns, func(i, j int) bool { return patterns[i].Support > patterns[j].Support })
	fmt.Println("\nstrongest patterns:")
	for i, p := range patterns {
		if i == 8 {
			break
		}
		fmt.Printf("  support=%4d  ", p.Support)
		for k, sp := range p.Stays {
			if k > 0 {
				fmt.Print(" → ")
			}
			fmt.Printf("%s %s", sp.S, sp.P)
		}
		fmt.Println()
	}
}
