// Gpstraces runs Pervasive Miner over *continuous raw GPS trajectories*
// instead of taxi pick-up/drop-off records, exercising the full paper
// pipeline: stay-point detection (Definition 5) → semantic recognition
// (Algorithm 3) → pattern extraction (Algorithm 4). The paper's taxi
// dataset short-circuits the first step; generic GPS traces (phones,
// personal navigation) do not.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"csdm"
	"csdm/internal/pattern"
	"csdm/internal/recognize"
	"csdm/internal/stage"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

func main() {
	cfg := csdm.DefaultCityConfig()
	cfg.NumPOIs = 3000
	cfg.NumPassengers = 400
	cfg.CardShare = 1 // trace every commuter
	cfg.Days = 7
	city := csdm.GenerateCity(cfg)
	workload := city.GenerateWorkload()

	// Continuous GPS traces: one per commuter per day.
	traces := city.GenerateGPSTraces(workload, synth.DefaultTraceConfig())
	samples := 0
	for _, tr := range traces {
		samples += len(tr.Points)
	}
	fmt.Printf("generated %d raw GPS traces with %d samples\n", len(traces), samples)

	// Stage 0 (Definition 5): stay-point detection on raw trajectories.
	spParams := trajectory.DefaultStayPointParams()
	db := make([]trajectory.SemanticTrajectory, 0, len(traces))
	totalStays := 0
	for _, tr := range traces {
		st := trajectory.ToSemantic(tr, spParams)
		if st.Len() >= 2 {
			db = append(db, st)
			totalStays += st.Len()
		}
	}
	fmt.Printf("stay-point detection: %d semantic trajectories, %d stay points (θ_d=%.0f m, θ_t=%s)\n",
		len(db), totalStays, spParams.MaxDist, spParams.MinDuration)

	// Stage 1–2: build the CSD from the detected stay points and
	// recognize every stay (semantic absence resolved).
	miner := csdm.NewMiner(city.POIs, workload.Journeys, csdm.DefaultConfig())
	d, err := miner.Diagram(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := recognize.AnnotateCtx(context.Background(), db, recognize.NewCSDRecognizer(d), 0); err != nil {
		log.Fatal(err)
	}
	annotated := 0
	for _, st := range db {
		for _, sp := range st.Stays {
			if !sp.S.IsEmpty() {
				annotated++
			}
		}
	}
	fmt.Printf("semantic recognition: %d/%d stays annotated\n", annotated, totalStays)

	// Stage 3: fine-grained pattern extraction over the annotated
	// trajectories.
	params := csdm.DefaultMiningParams()
	params.Sigma = 12
	patterns, err := pattern.NewCounterpartCluster().Extract(stage.Background(), db, params)
	if err != nil {
		log.Fatal(err)
	}
	s := csdm.Summarize(patterns)
	fmt.Printf("\nCSD-PM over raw traces: %d patterns, coverage %d, sparsity %.1f m, consistency %.3f\n",
		s.NumPatterns, s.Coverage, s.MeanSparsity, s.MeanConsistency)

	sort.Slice(patterns, func(i, j int) bool { return patterns[i].Support > patterns[j].Support })
	for i, p := range patterns {
		if i == 6 {
			break
		}
		fmt.Printf("  support=%4d  ", p.Support)
		for k, sp := range p.Stays {
			if k > 0 {
				fmt.Print(" → ")
			}
			fmt.Print(sp.S)
		}
		fmt.Println()
	}
}
