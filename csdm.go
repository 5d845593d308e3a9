package csdm

import (
	"context"
	"io"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/metrics"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// Geographic and data-model types.
type (
	// Point is a WGS84 coordinate (longitude, latitude).
	Point = geo.Point
	// POI is a point of interest with a semantic category.
	POI = poi.POI
	// Semantics is a set of semantic tags over the 15 major categories.
	Semantics = poi.Semantics
	// Major is one of the 15 major semantic categories (Table 3).
	Major = poi.Major
	// Journey is one taxi trip record (pick-up, drop-off, times,
	// optional passenger card ID).
	Journey = trajectory.Journey
	// StayPoint is a location where a commuter stopped for an activity.
	StayPoint = trajectory.StayPoint
	// SemanticTrajectory is a sequence of (annotated) stay points.
	SemanticTrajectory = trajectory.SemanticTrajectory
	// Pattern is a mined fine-grained semantic pattern.
	Pattern = pattern.Pattern
	// MiningParams are the σ/δ_t/ρ/ε_t mining thresholds.
	MiningParams = pattern.Params
	// Summary aggregates the four evaluation metrics over a result set.
	Summary = metrics.Summary
	// Config bundles the construction parameters of the pipeline,
	// including the Workers budget and the spatial Index backend.
	Config = core.Config
	// ApproachResult pairs an approach with its mined patterns.
	ApproachResult = core.ApproachResult
	// Approach selects one of the six systems of the paper's §5.
	Approach = core.Approach
	// Diagram is a built City Semantic Diagram.
	Diagram = csd.Diagram
	// CityConfig parameterizes the synthetic city generator.
	CityConfig = synth.Config
	// City is a generated synthetic city.
	City = synth.City
	// Trace collects per-stage telemetry — hierarchical wall-time
	// spans plus named counters and gauges — for one pipeline run.
	Trace = obs.Trace
)

// The six approaches compared in the paper.
var (
	// CSDPM is the paper's system: CSD recognition + CounterpartCluster.
	CSDPM = core.CSDPM
	// ROIPM replaces the CSD with the hot-region baseline of [21].
	ROIPM = core.ROIPM
	// CSDSplitter combines CSD recognition with Splitter refinement [17].
	CSDSplitter = core.CSDSplitter
	// ROISplitter combines ROI recognition with Splitter refinement.
	ROISplitter = core.ROISplitter
	// CSDSDBSCAN combines CSD recognition with SDBSCAN refinement [19].
	CSDSDBSCAN = core.CSDSDBSCAN
	// ROISDBSCAN combines ROI recognition with SDBSCAN refinement.
	ROISDBSCAN = core.ROISDBSCAN
)

// Approaches lists all six systems in the paper's order.
func Approaches() []Approach { return core.Approaches() }

// DefaultConfig returns the paper's §4.1 construction defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultMiningParams returns the paper's §5 normal condition:
// σ = 50, δ_t = 60 min, ρ = 0.002 m⁻².
func DefaultMiningParams() MiningParams { return pattern.DefaultParams() }

// DefaultCityConfig returns a laptop-scale synthetic city configuration.
func DefaultCityConfig() CityConfig { return synth.DefaultConfig() }

// GenerateCity builds a synthetic Shanghai-like city: POIs matching the
// paper's Table 3 category mix, mixed-use towers, single-purpose
// streets, a river, an airport and a hospital.
func GenerateCity(cfg CityConfig) *City { return synth.NewCity(cfg) }

// Miner is the top-level entry point: it owns a POI dataset and a taxi
// journey log and runs any of the six mining approaches over them. The
// expensive shared artifacts (the City Semantic Diagram, the annotated
// trajectory databases) are built once and reused across Mine calls.
type Miner struct {
	pipeline *core.Pipeline
}

// NewMiner prepares a miner over the given POI dataset and journeys.
func NewMiner(pois []POI, journeys []Journey, cfg Config) *Miner {
	return &Miner{pipeline: core.NewPipeline(pois, journeys, cfg)}
}

// Diagram returns the City Semantic Diagram, building it on first use.
// A canceled ctx aborts the build with ctx.Err(); a later call
// rebuilds.
func (m *Miner) Diagram(ctx context.Context) (*Diagram, error) {
	return m.pipeline.DiagramCtx(ctx)
}

// EnableTrace attaches a fresh telemetry trace to the miner and
// returns it; every pipeline stage run afterwards records spans and
// counters. Call before the first Diagram, Database, Recognize or
// Mine call — already-built artifacts are not re-traced.
func (m *Miner) EnableTrace() *Trace {
	tr := obs.New()
	m.pipeline.SetTrace(tr)
	return tr
}

// Trace returns the miner's telemetry trace, nil when tracing was
// never enabled. A nil trace is safe to use — all its methods no-op.
func (m *Miner) Trace() *Trace { return m.pipeline.Trace() }

// UseDiagram installs a pre-built diagram (e.g. loaded with
// ReadDiagram) instead of constructing one; it must be called before
// the first Diagram, Database, Recognize or Mine call.
func (m *Miner) UseDiagram(d *Diagram) { m.pipeline.UseDiagram(d) }

// ReadDiagram loads a diagram serialized with (*Diagram).Write.
func ReadDiagram(r io.Reader) (*Diagram, error) { return csd.Read(r) }

// Mine runs one approach end to end and returns its fine-grained
// patterns. The pipeline runs on the configured worker pool and a
// canceled ctx aborts promptly with ctx.Err().
func (m *Miner) Mine(ctx context.Context, a Approach, params MiningParams) ([]Pattern, error) {
	return m.pipeline.MineCtx(ctx, a, params)
}

// MineAll runs all six approaches under the shared worker budget,
// returning results in Approaches() order. Each result carries its own
// approach's error; the returned error is non-nil only when ctx is
// canceled.
func (m *Miner) MineAll(ctx context.Context, params MiningParams) ([]ApproachResult, error) {
	return m.pipeline.MineAllCtx(ctx, params)
}

// Database returns the annotated semantic-trajectory database built by
// the given approach's recognizer.
func (m *Miner) Database(ctx context.Context, a Approach) ([]SemanticTrajectory, error) {
	return m.pipeline.DatabaseCtx(ctx, a.Recognizer)
}

// Recognize returns the semantic property the City Semantic Diagram
// assigns to a stay at p (Algorithm 3), building the diagram on first
// use.
func (m *Miner) Recognize(ctx context.Context, p Point) (Semantics, error) {
	d, err := m.pipeline.DiagramCtx(ctx)
	if err != nil {
		return 0, err
	}
	return recognize.NewCSDRecognizer(d).RecognizeBuf(p, new(recognize.Scratch)), nil
}

// Summarize computes the paper's four evaluation metrics — pattern
// count, coverage, mean spatial sparsity, mean semantic consistency —
// over a mining result.
func Summarize(ps []Pattern) Summary { return metrics.Summarize(ps) }

// SpatialSparsity computes Equation (10) for one pattern.
func SpatialSparsity(p Pattern) float64 { return metrics.SpatialSparsity(p) }

// SemanticConsistency computes Equation (12) for one pattern.
func SemanticConsistency(p Pattern) float64 { return metrics.SemanticConsistency(p) }

// DetectStayPoints extracts stay points from a raw GPS trajectory per
// Definition 5. Taxi pick-up/drop-off records do not need this — their
// endpoints are stay points directly — but generic GPS traces do.
func DetectStayPoints(t trajectory.Trajectory, params trajectory.StayPointParams) []StayPoint {
	return trajectory.DetectStayPoints(t, params)
}
