// Comparison runs all six systems of the paper's evaluation — CSD-PM,
// ROI-PM, CSD-Splitter, ROI-Splitter, CSD-SDBSCAN, ROI-SDBSCAN — over
// one synthetic workload and prints the §5 metric table.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"csdm"
)

func main() {
	cfg := csdm.DefaultCityConfig()
	cfg.NumPOIs = 4000
	cfg.NumPassengers = 600
	cfg.Days = 7
	city := csdm.GenerateCity(cfg)
	workload := city.GenerateWorkload()
	miner := csdm.NewMiner(city.POIs, workload.Journeys, csdm.DefaultConfig())

	params := csdm.DefaultMiningParams()
	params.Sigma = 25

	t0 := time.Now()
	results, err := miner.MineAll(context.Background(), params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d journeys with all six approaches in %.1fs\n\n",
		len(workload.Journeys), time.Since(t0).Seconds())

	fmt.Printf("%-13s %10s %10s %14s %14s\n",
		"approach", "#patterns", "coverage", "sparsity (m)", "consistency")
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.Approach, r.Err)
		}
		s := csdm.Summarize(r.Patterns)
		fmt.Printf("%-13s %10d %10d %14.1f %14.3f\n",
			r.Approach, s.NumPatterns, s.Coverage, s.MeanSparsity, s.MeanConsistency)
	}
	fmt.Println("\nExpected shape (paper §5): CSD-based rows have lower sparsity and")
	fmt.Println("semantic consistency pinned near 1.0; ROI-based rows are sparser and")
	fmt.Println("less consistent because hot-region annotation cannot control purity.")
}
