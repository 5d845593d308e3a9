// Commuterflows reproduces the paper's §6 demonstration: mine mobility
// patterns separately for the six weekly time buckets (weekday/weekend
// × morning/afternoon/night) and contrast the regular weekday commute
// structure with the sparse, irregular weekend one.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"csdm"
	"csdm/internal/core"
)

func main() {
	cfg := csdm.DefaultCityConfig()
	cfg.NumPOIs = 4000
	cfg.NumPassengers = 700
	cfg.Days = 14
	city := csdm.GenerateCity(cfg)
	workload := city.GenerateWorkload()

	params := csdm.DefaultMiningParams()
	params.Sigma = 15 // per-bucket workloads are small

	for _, bucket := range core.TimeBuckets() {
		js := core.FilterJourneys(workload.Journeys, bucket)
		miner := csdm.NewMiner(city.POIs, js, csdm.DefaultConfig())
		patterns, err := miner.Mine(context.Background(), csdm.CSDPM, params)
		if err != nil {
			log.Fatal(err)
		}
		s := csdm.Summarize(patterns)
		fmt.Printf("%-18s %6d journeys  %4d patterns  coverage %5d\n",
			bucket, len(js), s.NumPatterns, s.Coverage)
		for _, line := range topTransitions(patterns, 3) {
			fmt.Printf("    %s\n", line)
		}
	}
	fmt.Println("\nAs in the paper: weekday mornings are dominated by Residence → work")
	fmt.Println("movements, evenings reverse them (often via restaurants and shops),")
	fmt.Println("and weekend patterns are fewer and less regular.")
}

// topTransitions renders the most-covered semantic transitions.
func topTransitions(patterns []csdm.Pattern, n int) []string {
	type agg struct {
		name     string
		coverage int
	}
	byName := map[string]*agg{}
	for _, p := range patterns {
		name := ""
		for k, it := range p.Items {
			if k > 0 {
				name += " → "
			}
			name += it.String()
		}
		a, ok := byName[name]
		if !ok {
			a = &agg{name: name}
			byName[name] = a
		}
		a.coverage += p.Support
	}
	list := make([]agg, 0, len(byName))
	for _, a := range byName {
		list = append(list, *a)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].coverage != list[j].coverage {
			return list[i].coverage > list[j].coverage
		}
		return list[i].name < list[j].name
	})
	var out []string
	for i, a := range list {
		if i == n {
			break
		}
		out = append(out, fmt.Sprintf("%-70s coverage %d", a.name, a.coverage))
	}
	return out
}
