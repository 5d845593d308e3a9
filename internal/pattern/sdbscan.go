package pattern

import (
	"csdm/internal/cluster"
	"csdm/internal/geo"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// SDBSCAN is the baseline of Jiang et al. [19]: the modified Splitter
// that breaks PrefixSpan's coarse patterns with density-based DBSCAN
// clustering instead of top-down Mean Shift (§2). A fixed ε makes it
// chain adjacent dense areas together, which is what produces the
// sparse-pattern tail the paper observes for DBSCAN-based refinement.
type SDBSCAN struct {
	// Eps is the DBSCAN neighborhood radius in meters.
	Eps float64
	// MinPts is the DBSCAN core threshold; 0 means "use σ".
	MinPts int
}

// NewSDBSCAN returns the baseline with its published ~100 m radius.
func NewSDBSCAN() *SDBSCAN { return &SDBSCAN{Eps: 100} }

// Name implements Extractor.
func (s *SDBSCAN) Name() string { return "SDBSCAN" }

// Extract implements Extractor.
func (s *SDBSCAN) Extract(env stage.Env, db []trajectory.SemanticTrajectory, params Params) ([]Pattern, error) {
	params = params.normalized()
	minPts := s.MinPts
	if minPts <= 0 {
		minPts = params.Sigma
	}
	return extractStages(env, s.Name(), db, params, func(pa coarsePattern) []Pattern {
		return refineByModes(pa, params, func(pts []geo.Point) []int {
			return cluster.DBSCAN(pts, s.Eps, minPts, env.Opt).Labels
		}, env.Trace, "extract."+s.Name())
	})
}
