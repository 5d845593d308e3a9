package cluster

import (
	"csdm/internal/geo"
	"csdm/internal/index"
)

// MeanShiftResult extends Result with the converged modes.
type MeanShiftResult struct {
	Result
	Modes []geo.Point
}

// meanShiftMaxIter bounds the hill-climbing iterations per point.
const meanShiftMaxIter = 100

// MeanShift clusters pts by flat-kernel mean-shift with the given
// bandwidth (meters): every point hill-climbs to the mean of its
// bandwidth neighborhood until it moves less than 1% of the bandwidth,
// and points whose modes land within half a bandwidth of each other are
// merged into one cluster. This is the top-down refinement strategy the
// Splitter baseline uses to break coarse patterns apart. It runs
// sequentially: its caller already refines coarse patterns on the
// worker pool, and a nested fan-out measured slower on two cores
// (EXPERIMENTS.md).
func MeanShift(pts []geo.Point, bandwidth float64, kind index.Kind) MeanShiftResult {
	n := len(pts)
	labels := make([]int, n)
	if n == 0 || bandwidth <= 0 {
		for i := range labels {
			labels[i] = Noise
		}
		return MeanShiftResult{Result: Result{Labels: labels}}
	}
	proj := geo.NewProjection(geo.Centroid(pts))
	planar := make([]geo.Meters, n)
	for i, p := range pts {
		planar[i] = proj.ToMeters(p)
	}
	idx := index.New(kind, pts, bandwidth)
	tol := bandwidth * 0.01

	modes := make([]geo.Meters, n)
	// One neighbour buffer serves every hill-climb step.
	var neighbors []int
	for i := range planar {
		cur := planar[i]
		for iter := 0; iter < meanShiftMaxIter; iter++ {
			neighbors = idx.WithinAppend(proj.ToPoint(cur), bandwidth, neighbors[:0])
			if len(neighbors) == 0 {
				break
			}
			var sx, sy float64
			for _, j := range neighbors {
				sx += planar[j].X
				sy += planar[j].Y
			}
			next := geo.Meters{X: sx / float64(len(neighbors)), Y: sy / float64(len(neighbors))}
			if cur.Dist(next) < tol {
				cur = next
				break
			}
			cur = next
		}
		modes[i] = cur
	}

	// Merge modes within bandwidth/2 of each other (greedy union).
	mergeR := bandwidth / 2
	var centers []geo.Meters
	for i := range labels {
		assigned := -1
		for c, ctr := range centers {
			if modes[i].Dist(ctr) <= mergeR {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			centers = append(centers, modes[i])
			assigned = len(centers) - 1
		}
		labels[i] = assigned
	}

	out := MeanShiftResult{
		Result: Result{Labels: labels, NumClusters: len(centers)},
		Modes:  make([]geo.Point, len(centers)),
	}
	// Report each cluster's mode as the mean of its members' modes.
	sums := make([]geo.Meters, len(centers))
	counts := make([]int, len(centers))
	for i, l := range labels {
		sums[l].X += modes[i].X
		sums[l].Y += modes[i].Y
		counts[l]++
	}
	for c := range centers {
		out.Modes[c] = proj.ToPoint(geo.Meters{
			X: sums[c].X / float64(counts[c]),
			Y: sums[c].Y / float64(counts[c]),
		})
	}
	return out
}
