package pattern

import (
	"sort"

	"csdm/internal/cluster"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// Splitter is the baseline of Zhang et al. [17]: PrefixSpan's coarse
// patterns are broken top-down with Mean Shift — the k-th stay points
// of each coarse pattern hill-climb to their density modes, and
// trajectories whose stays converge to the same mode tuple form one
// fine pattern. The universal σ/δ_t/ρ thresholds apply afterwards.
type Splitter struct {
	// Bandwidth is the Mean-Shift kernel bandwidth in meters.
	Bandwidth float64
}

// NewSplitter returns the baseline with its published ~150 m bandwidth.
func NewSplitter() *Splitter { return &Splitter{Bandwidth: 150} }

// Name implements Extractor.
func (s *Splitter) Name() string { return "Splitter" }

// Extract implements Extractor.
func (s *Splitter) Extract(env stage.Env, db []trajectory.SemanticTrajectory, params Params) ([]Pattern, error) {
	params = params.normalized()
	return extractStages(env, s.Name(), db, params, func(pa coarsePattern) []Pattern {
		return refineByModes(pa, params, func(pts []geo.Point) []int {
			return cluster.MeanShiftWith(pts, s.Bandwidth, env.Opt).Labels
		}, env.Trace, "extract."+s.Name())
	})
}

// refineByModes groups a coarse pattern's trajectories by the tuple of
// per-position cluster labels produced by clusterFn, then applies the
// universal σ/δ_t/ρ filters. Both Splitter and SDBSCAN share this
// skeleton; they differ only in the clustering strategy (§2). Label
// tuples form the candidate fine patterns; candidate and prune counts
// land on tr under pfx (nil-safe).
func refineByModes(pa coarsePattern, params Params, clusterFn func([]geo.Point) []int, tr *obs.Trace, pfx string) []Pattern {
	m := len(pa.items)
	n := len(pa.stays)
	if n < params.Sigma {
		return nil
	}
	labels := make([][]int, m)
	for k := 0; k < m; k++ {
		pts := make([]geo.Point, n)
		for i := range pa.stays {
			pts[i] = pa.stays[i][k].P
		}
		labels[k] = clusterFn(pts)
	}

	// Group trajectories by label tuple, dropping any with a noise
	// label or a δ_t violation.
	groups := make(map[string][]int)
	var keys []string
	for i := 0; i < n; i++ {
		key := make([]byte, 0, m*3)
		ok := true
		for k := 0; k < m; k++ {
			l := labels[k][i]
			if l < 0 {
				ok = false
				break
			}
			key = appendLabel(key, l)
		}
		if !ok || !respectsDeltaT(pa.stays[i], params.DeltaT) {
			continue
		}
		ks := string(key)
		if _, seen := groups[ks]; !seen {
			keys = append(keys, ks)
		}
		groups[ks] = append(groups[ks], i)
	}
	sort.Strings(keys)

	var out []Pattern
	var pruned int64
	for _, ks := range keys {
		members := groups[ks]
		if len(members) < params.Sigma {
			pruned++
			continue
		}
		// Density threshold ρ on every position group.
		dense := true
		for k := 0; k < m && dense; k++ {
			pts := make([]geo.Point, len(members))
			for idx, i := range members {
				pts[idx] = pa.stays[i][k].P
			}
			if geo.Density(pts) < params.Rho {
				dense = false
			}
		}
		if !dense {
			pruned++
			continue
		}
		support := make([][]trajectory.StayPoint, len(members))
		for idx, i := range members {
			support[idx] = pa.stays[i]
		}
		out = append(out, buildPattern(pa.items, support))
	}
	tr.Add(pfx+".candidates", int64(len(keys)))
	tr.Add(pfx+".pruned", pruned)
	return out
}

// appendLabel appends the group-key token of a non-negative label: its
// 16-bit digits, least significant first, each as two little-endian
// bytes followed by '+' when more digits follow or ',' after the last.
// Every third byte says whether the token goes on, so a key decodes
// uniquely and distinct label tuples get distinct keys. A label below
// 65536 keeps its historical three bytes, so keys whose labels all fit
// in 16 bits, and hence their sort order, are unchanged.
func appendLabel(key []byte, l int) []byte {
	for {
		key = append(key, byte(l), byte(l>>8))
		if l >>= 16; l == 0 {
			return append(key, ',')
		}
		key = append(key, '+')
	}
}
