// Package csdm is a Go implementation of the City Semantic Diagram and
// the Pervasive Miner system from "Extract Human Mobility Patterns
// Powered by City Semantic Diagram" (Shan, Sun, Zheng).
//
// Pervasive Miner extracts fine-grained semantic mobility patterns —
// sequences like Residence → Office → Restaurant anchored at specific
// places — from raw, semantics-free taxi GPS trajectories. It works in
// three stages:
//
//  1. Semantic Diagram Construction organizes a city's POI dataset into
//     fine-grained semantic units via popularity-based clustering,
//     KL-divergence semantic purification, and cosine-similarity unit
//     merging.
//  2. Semantic Recognition labels every stay point of every trajectory
//     by a popularity-weighted vote among the semantic units around it.
//  3. Pattern Extraction mines coarse semantic sequences with PrefixSpan
//     and refines them into spatially dense fine-grained patterns with
//     the OPTICS-based CounterpartCluster algorithm.
//
// The package also implements the paper's five competitor systems
// (ROI-PM, CSD/ROI-Splitter, CSD/ROI-SDBSCAN), the evaluation metrics,
// and a synthetic Shanghai-like workload generator that stands in for
// the proprietary taxi and POI datasets.
//
// # Quick start
//
//	city := csdm.GenerateCity(csdm.DefaultCityConfig())
//	journeys := city.GenerateWorkload().Journeys
//	miner := csdm.NewMiner(city.POIs, journeys, csdm.DefaultConfig())
//	patterns, err := miner.Mine(context.Background(), csdm.CSDPM, csdm.DefaultMiningParams())
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(csdm.Summarize(patterns))
//
// See the examples directory for richer scenarios, and cmd/experiments
// for the reproduction of every table and figure of the paper.
package csdm
