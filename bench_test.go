package csdm

// This file regenerates every table and figure of the paper's
// evaluation as Go benchmarks — one benchmark per exhibit — plus the
// ablation benchmarks DESIGN.md calls out. Each benchmark reports the
// headline quantity of its exhibit as custom metrics, so
// `go test -bench=. -benchmem` prints the reproduced numbers next to
// the timings. The shared synthetic environment is built once.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/experiments"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/metrics"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/synth"
)

// benchScale keeps every exhibit benchmark in the seconds range while
// staying large enough that thin flows (hospital visits) still clear
// their drill-down support thresholds.
func benchScale() experiments.Scale {
	return experiments.Scale{Seed: 1, NumPOIs: 3000, NumPassengers: 600, Days: 14}
}

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func sharedEnv() *experiments.Env {
	benchOnce.Do(func() {
		benchEnv = experiments.Setup(benchScale())
	})
	return benchEnv
}

// benchParams scales σ to the benchmark workload.
func benchParams() MiningParams {
	p := experiments.MiningParams()
	p.Sigma = 20
	return p
}

func BenchmarkTable1CheckinBias(b *testing.B) {
	env := sharedEnv()
	var res []experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = env.Table1()
	}
	b.ReportMetric(res[1].StationShare*100, "tokyo-station-%")
	b.ReportMetric(res[0].MedicalShare*100, "ny-medical-%")
}

func BenchmarkTable3POICategories(b *testing.B) {
	env := sharedEnv()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = env.Table3()
	}
	b.ReportMetric(rows[0].Percentage*100, "residence-%")
}

func BenchmarkFig6CSDConstruction(b *testing.B) {
	env := sharedEnv()
	stays := env.Pipeline.StayPoints()
	params := core.DefaultConfig().CSD
	var d *csd.Diagram
	for i := 0; i < b.N; i++ {
		d = csd.Build(env.City.POIs, stays, params)
	}
	b.ReportMetric(float64(len(d.Units)), "units")
	b.ReportMetric(d.MeanUnitPurity(), "purity")
}

func BenchmarkFig8StayPoints(b *testing.B) {
	env := sharedEnv()
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = env.Fig8()
	}
	b.ReportMetric(float64(r.StayPoints), "staypoints")
	b.ReportMetric(r.MeanTripMin, "trip-min")
}

func BenchmarkFig9SparsityDistribution(b *testing.B) {
	env := sharedEnv()
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = env.Fig9(benchParams())
	}
	b.ReportMetric(r.Summaries["CSD-PM"].MeanSparsity, "csdpm-ss")
	b.ReportMetric(r.Summaries["ROI-PM"].MeanSparsity, "roipm-ss")
}

func BenchmarkFig10ConsistencyBoxes(b *testing.B) {
	env := sharedEnv()
	var r experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = env.Fig10(benchParams())
	}
	b.ReportMetric(r.Boxes["CSD-PM"].Mean, "csdpm-sc")
	b.ReportMetric(r.Boxes["ROI-PM"].Mean, "roipm-sc")
}

func BenchmarkFig11SupportSweep(b *testing.B) {
	env := sharedEnv()
	var r experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = env.Fig11()
	}
	b.ReportMetric(float64(len(r.Points)), "sweep-points")
}

func BenchmarkFig12DensitySweep(b *testing.B) {
	env := sharedEnv()
	var r experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = env.Fig12()
	}
	b.ReportMetric(float64(len(r.Points)), "sweep-points")
}

func BenchmarkFig13TemporalSweep(b *testing.B) {
	env := sharedEnv()
	var r experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = env.Fig13()
	}
	b.ReportMetric(float64(len(r.Points)), "sweep-points")
}

func BenchmarkFig14TimeBuckets(b *testing.B) {
	env := sharedEnv()
	var r []experiments.Fig14BucketResult
	for i := 0; i < b.N; i++ {
		r = env.Fig14(benchParams())
	}
	weekday, weekend := 0, 0
	for _, br := range r {
		if br.Bucket < 3 {
			weekday += br.NumPatterns
		} else {
			weekend += br.NumPatterns
		}
	}
	b.ReportMetric(float64(weekday), "weekday-patterns")
	b.ReportMetric(float64(weekend), "weekend-patterns")
}

func BenchmarkFig14gAirport(b *testing.B) {
	env := sharedEnv()
	var r experiments.Fig14gResult
	for i := 0; i < b.N; i++ {
		r = env.Fig14g(benchParams())
	}
	b.ReportMetric(r.AirportShare*100, "airport-trip-%")
	b.ReportMetric(float64(r.AirportPatterns), "airport-patterns")
}

func BenchmarkFig14hHospital(b *testing.B) {
	env := sharedEnv()
	var r experiments.Fig14hResult
	for i := 0; i < b.N; i++ {
		r = env.Fig14h(benchParams())
	}
	b.ReportMetric(float64(r.HospitalPatterns), "hospital-patterns")
	b.ReportMetric(r.CheckinShareNY*100, "ny-medical-checkin-%")
}

// --- Ablations (DESIGN.md §7) -------------------------------------

// BenchmarkAblationVotingVsNearest contrasts Algorithm 3's unit voting
// with naive nearest-POI annotation under GPS jitter: the metric is the
// fraction of 200 jittered probes around busy anchors whose label
// matches the unjittered one.
func BenchmarkAblationVotingVsNearest(b *testing.B) {
	env := sharedEnv()
	d := env.Pipeline.Diagram()
	voting := recognize.NewCSDRecognizer(d)
	nearest := recognize.NewNearestPOIRecognizer(env.City.POIs, 100, env.Cfg.Index)
	proj := env.City.Proj

	stability := func(r recognize.Recognizer) float64 {
		same, total := 0, 0
		for s := 0; s < 20; s++ {
			anchor := env.City.Sites[s].Center
			ref := r.Recognize(anchor)
			if ref.IsEmpty() {
				continue
			}
			m := proj.ToMeters(anchor)
			for k := 0; k < 10; k++ {
				jit := geo.Meters{X: m.X + float64(k%5-2)*12, Y: m.Y + float64(k/5-1)*12}
				if r.Recognize(proj.ToPoint(jit)) == ref {
					same++
				}
				total++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(same) / float64(total)
	}

	var v, n float64
	for i := 0; i < b.N; i++ {
		v = stability(voting)
		n = stability(nearest)
	}
	b.ReportMetric(v, "voting-stability")
	b.ReportMetric(n, "nearest-stability")
}

// BenchmarkAblationPurification contrasts recognition accuracy with
// Algorithm 2 enabled and disabled. The synthetic city knows ground
// truth — each stay happens at a site with known categories — so the
// metric is the mean Jaccard overlap between the recognized tags and
// the true venue categories. Without purification, mixed coarse
// clusters blanket their whole extent with union tags, and accuracy at
// single-purpose venues near them drops.
func BenchmarkAblationPurification(b *testing.B) {
	env := sharedEnv()
	stays := env.Pipeline.StayPoints()
	paramsOn := core.DefaultConfig().CSD
	paramsOff := paramsOn
	paramsOff.SkipPurification = true

	accuracy := func(r recognize.Recognizer) float64 {
		var sum float64
		n := 0
		for s := 0; s < len(env.City.Sites); s++ {
			site := env.City.Sites[s]
			var truth poi.Semantics
			for _, mj := range site.Majors {
				truth = truth.Add(mj)
			}
			got := r.Recognize(site.Center)
			if got.IsEmpty() {
				continue
			}
			inter := 0
			union := 0
			for mj := 0; mj < poi.NumMajors; mj++ {
				in := got.Has(poi.Major(mj))
				tr := truth.Has(poi.Major(mj))
				if in && tr {
					inter++
				}
				if in || tr {
					union++
				}
			}
			if union > 0 {
				sum += float64(inter) / float64(union)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	var accOn, accOff float64
	for i := 0; i < b.N; i++ {
		dOn := csd.Build(env.City.POIs, stays, paramsOn)
		dOff := csd.Build(env.City.POIs, stays, paramsOff)
		accOn = accuracy(recognize.NewCSDRecognizer(dOn))
		accOff = accuracy(recognize.NewCSDRecognizer(dOff))
	}
	b.ReportMetric(accOn, "accuracy-on")
	b.ReportMetric(accOff, "accuracy-off")
}

// BenchmarkAblationMerging contrasts unit counts with the merging step
// enabled and disabled (fragmentation).
func BenchmarkAblationMerging(b *testing.B) {
	env := sharedEnv()
	stays := env.Pipeline.StayPoints()
	on := core.DefaultConfig().CSD
	off := on
	off.SkipMerging = true
	var uOn, uOff int
	for i := 0; i < b.N; i++ {
		uOn = len(csd.Build(env.City.POIs, stays, on).Units)
		uOff = len(csd.Build(env.City.POIs, stays, off).Units)
	}
	b.ReportMetric(float64(uOn), "units-merged")
	b.ReportMetric(float64(uOff), "units-unmerged")
}

// BenchmarkAblationOpticsVsDBSCAN contrasts Algorithm 4's OPTICS-based
// extraction against the fixed-ε SDBSCAN refinement on the same
// database.
func BenchmarkAblationOpticsVsDBSCAN(b *testing.B) {
	env := sharedEnv()
	params := benchParams()
	var optics, dbscan metrics.Summary
	for i := 0; i < b.N; i++ {
		optics = metrics.Summarize(env.Pipeline.Mine(core.CSDPM, params))
		dbscan = metrics.Summarize(env.Pipeline.Mine(core.CSDSDBSCAN, params))
	}
	b.ReportMetric(float64(optics.NumPatterns), "optics-patterns")
	b.ReportMetric(float64(dbscan.NumPatterns), "dbscan-patterns")
}

// BenchmarkIndexComparison races the three spatial indexes on the
// workload's range query (R3σ around stay points over the POI set).
func BenchmarkIndexComparison(b *testing.B) {
	env := sharedEnv()
	pts := poi.Locations(env.City.POIs)
	stays := env.Pipeline.StayPoints()
	for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
		b.Run(kind.String(), func(b *testing.B) {
			idx := index.New(kind, pts, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Within(stays[i%len(stays)], 100)
			}
		})
	}
}

// BenchmarkMine times the extraction stage alone (the recognition
// artifacts are prebuilt), with no trace attached. The sub-benchmarks
// pin the worker budget along the scaling curve {1, 4, NumCPU}:
// workers-1 is the sequential baseline and the higher counts measure
// the execution layer's speedup on the same (bit-identical) mining
// output; workers-4 is the curve point TestParallelEfficiencyFloor
// checks.
func BenchmarkMine(b *testing.B) {
	set := map[int]bool{1: true, 4: true, runtime.NumCPU(): true}
	counts := make([]int, 0, len(set))
	for n := range set {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), mineBench(workers))
	}
}

// mineBench builds the bench city at a pinned worker budget and
// returns a benchmark of CSD-PM extraction over its prebuilt
// recognition database, so only extraction is measured.
func mineBench(workers int) func(*testing.B) {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	env := experiments.SetupConfig(benchScale(), cfg)
	env.Pipeline.Database(core.RecCSD)
	params := benchParams()
	return func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = len(env.Pipeline.Mine(core.CSDPM, params))
		}
		b.ReportMetric(float64(n), "patterns")
	}
}

// BenchmarkEndToEndCSDPM times the full pipeline — diagram, recognition,
// extraction — from cold on a fresh pipeline.
func BenchmarkEndToEndCSDPM(b *testing.B) {
	scale := benchScale()
	cfg := synth.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.NumPOIs = scale.NumPOIs
	cfg.NumPassengers = scale.NumPassengers
	cfg.Days = scale.Days
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	params := benchParams()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		miner := NewMiner(city.POIs, w.Journeys, DefaultConfig())
		n = len(miner.Mine(CSDPM, params))
	}
	b.ReportMetric(float64(n), "patterns")
}

// BenchmarkAblationSemanticFree contrasts CSD-PM against the grid-based
// T-Pattern baseline of Giannotti et al. [13]: the pre-semantic family
// the paper's §2 argues cannot support semantic queries. The metric
// pair shows how many flows each finds; only CSD-PM's carry semantics.
func BenchmarkAblationSemanticFree(b *testing.B) {
	env := sharedEnv()
	params := benchParams()
	db := env.Pipeline.Database(core.RecCSD)
	var csdpm, tpat int
	for i := 0; i < b.N; i++ {
		csdpm = len(env.Pipeline.Mine(core.CSDPM, params))
		tpat = len(pattern.Compat{E: pattern.NewTPattern()}.Extract(db, params))
	}
	b.ReportMetric(float64(csdpm), "csdpm-patterns")
	b.ReportMetric(float64(tpat), "tpattern-patterns")
}
