// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6) on the synthetic Shanghai workload. Each experiment
// has a typed result and a text renderer; cmd/experiments is a thin
// wrapper over this package, and the package's tests gate each
// exhibit's shape and the design ablations.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// city, not 2.2×10⁷ real journeys — but each experiment reproduces the
// paper's qualitative shape, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"time"

	"csdm/internal/core"
	"csdm/internal/pattern"
	"csdm/internal/synth"
)

// Scale sizes the synthetic workload. The default is laptop-scale;
// raise the numbers to stress the system.
type Scale struct {
	Seed          int64
	NumPOIs       int
	NumPassengers int
	Days          int
}

// DefaultScale mines in tens of seconds on a laptop while leaving every
// stage with realistic structure.
func DefaultScale() Scale {
	return Scale{Seed: 1, NumPOIs: 6000, NumPassengers: 1000, Days: 14}
}

// MiningParams returns the paper's normal condition (§5): σ = 50,
// δ_t = 60 min, ρ = 0.002 m⁻².
func MiningParams() pattern.Params { return pattern.DefaultParams() }

// Env is a generated city, its workload, and a ready pipeline — the
// shared input of all experiments.
type Env struct {
	City     *synth.City
	Workload synth.Workload
	Pipeline *core.Pipeline
	// Cfg is the pipeline configuration the environment was set up with,
	// so experiments build their side structures (check-in indexes,
	// ablation recognizers) on the same backend as the pipeline.
	Cfg core.Config
}

// Setup generates the synthetic environment for a scale with the
// default pipeline configuration.
func Setup(s Scale) *Env {
	return SetupConfig(s, core.DefaultConfig())
}

// SetupConfig generates the synthetic environment for a scale with an
// explicit pipeline configuration (worker budget, index backend, stage
// parameters).
func SetupConfig(s Scale, pipeCfg core.Config) *Env {
	cfg := synth.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.NumPOIs = s.NumPOIs
	cfg.NumPassengers = s.NumPassengers
	cfg.Days = s.Days
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	return &Env{
		City:     city,
		Workload: w,
		Pipeline: core.NewPipeline(city.POIs, w.Journeys, pipeCfg),
		Cfg:      pipeCfg,
	}
}

// header prints a section header for an experiment report.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// sweepValues returns the four settings of a parameter sweep around a
// default, matching the paper's four-point sweeps.
func sigmaSweep() []int   { return []int{25, 50, 75, 100} }
func rhoSweep() []float64 { return []float64{0.001, 0.002, 0.003, 0.004} }
func deltaSweep() []time.Duration {
	return []time.Duration{15 * time.Minute, 30 * time.Minute, 45 * time.Minute, 60 * time.Minute}
}
