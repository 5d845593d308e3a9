package pattern

import (
	"csdm/internal/cluster"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// CounterpartCluster is the paper's extractor (Algorithm 4). Per coarse
// pattern, OPTICS clusters the k-th stay points with the support
// threshold σ as its size threshold and an automatically extracted
// distance cut; each trajectory then gathers its counterpart set
// position by position, enforcing δ_t and the group-density threshold
// ρ, and surviving counterpart sets of size ≥ σ become fine-grained
// patterns.
type CounterpartCluster struct {
	// OpticsMaxEps is the generating distance of the OPTICS runs
	// (the "default maximum distance threshold" of §4.3).
	OpticsMaxEps float64
}

// NewCounterpartCluster returns the extractor with the default OPTICS
// generating distance of 500 m.
func NewCounterpartCluster() *CounterpartCluster {
	return &CounterpartCluster{OpticsMaxEps: 500}
}

// Name implements Extractor.
func (c *CounterpartCluster) Name() string { return "CounterpartCluster" }

// Extract implements Extractor.
func (c *CounterpartCluster) Extract(env stage.Env, db []trajectory.SemanticTrajectory, params Params) ([]Pattern, error) {
	params = params.normalized()
	return extractStages(env, c.Name(), db, params, func(pa coarsePattern) []Pattern {
		return c.refine(pa, params, env.Trace, env.Opt)
	})
}

// refine runs Algorithm 4 lines 3–20 on one coarse pattern, counting
// gathered counterpart candidate sets and σ/ρ prunes on tr.
func (c *CounterpartCluster) refine(pa coarsePattern, params Params, tr *obs.Trace, opt exec.Options) []Pattern {
	m := len(pa.items)
	n := len(pa.stays)
	if n < params.Sigma {
		return nil
	}

	// Line 5–6: OPTICS clusters of the k-th points, σ as minPts.
	clusters := make([][]int, m) // clusters[k][i] = cluster of trajectory i's k-th point
	for k := 0; k < m; k++ {
		pts := make([]geo.Point, n)
		for i := range pa.stays {
			pts[i] = pa.stays[i][k].P
		}
		res := cluster.Optics(pts, c.OpticsMaxEps, params.Sigma, opt).ExtractLeaves(params.Sigma)
		clusters[k] = res.Labels
	}

	removed := make([]bool, n) // "pa ← pa − …" bookkeeping
	var out []Pattern
	var candidates, pruned int64

	for i := 0; i < n; i++ {
		if removed[i] {
			continue
		}
		// Lines 8–14: gather the counterpart candidate set of ST_i.
		candidate := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if !removed[j] {
				candidate = append(candidate, j)
			}
		}
		valid := true
		for k := 0; k < m && valid; k++ {
			ci := clusters[k][i]
			next := candidate[:0]
			for _, j := range candidate {
				if ci >= 0 && clusters[k][j] == ci {
					next = append(next, j)
				}
			}
			candidate = next
			// Line 11–12: temporal constraint between consecutive points.
			if k > 0 {
				filtered := candidate[:0]
				for _, j := range candidate {
					gap := pa.stays[j][k].T.Sub(pa.stays[j][k-1].T)
					if gap < 0 {
						gap = -gap
					}
					if gap <= params.DeltaT {
						filtered = append(filtered, j)
					}
				}
				candidate = filtered
			}
			// Line 13–14: group density check.
			pts := make([]geo.Point, len(candidate))
			for idx, j := range candidate {
				pts[idx] = pa.stays[j][k].P
			}
			if geo.Density(pts) < params.Rho {
				// The failed candidates leave the coarse pattern.
				for _, j := range candidate {
					removed[j] = true
				}
				valid = false
			}
		}
		// Line 15: the gathered counterpart set leaves the coarse pattern.
		for _, j := range candidate {
			removed[j] = true
		}
		candidates++
		if !valid || len(candidate) < params.Sigma {
			pruned++
			continue
		}
		// Lines 18–20: representative points form the fine pattern.
		support := make([][]trajectory.StayPoint, len(candidate))
		for idx, j := range candidate {
			support[idx] = pa.stays[j]
		}
		out = append(out, buildPattern(pa.items, support))
	}
	pfx := "extract." + c.Name()
	tr.Add(pfx+".candidates", candidates)
	tr.Add(pfx+".pruned", pruned)
	return out
}
