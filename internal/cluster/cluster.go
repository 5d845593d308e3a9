// Package cluster implements the clustering algorithms the paper's
// pipeline and its baselines depend on: DBSCAN (hot-region detection in
// the ROI baseline, SDBSCAN refinement), OPTICS (Algorithm 4's
// CounterpartCluster step), and Mean Shift (Splitter's top-down
// refinement).
//
// All algorithms cluster WGS84 points with distances in meters and
// report results as a label per input point; Noise marks unclustered
// points.
package cluster

import (
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Result is a clustering outcome: Labels[i] is the cluster of point i
// (or Noise), and NumClusters is the number of distinct clusters.
type Result struct {
	Labels      []int
	NumClusters int
}

// Members returns the point indices of each cluster, indexed by label.
func (r Result) Members() [][]int {
	out := make([][]int, r.NumClusters)
	for i, l := range r.Labels {
		if l >= 0 {
			out[l] = append(out[l], i)
		}
	}
	return out
}

// NoiseCount returns how many points were labeled Noise.
func (r Result) NoiseCount() int {
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// DBSCAN runs density-based spatial clustering over pts with
// neighborhood radius eps (meters) and core threshold minPts (a point is
// a core point when its eps-neighborhood, itself included, holds at
// least minPts points). The spatial index backend comes from
// opt.Index. Each point's eps-neighborhood is queried once, when
// cluster growth visits it, into one reused buffer, so the working set
// is one neighborhood plus a queue of at most one entry per point. The
// labeling does not depend on opt.Workers.
func DBSCAN(pts []geo.Point, eps float64, minPts int, opt exec.Options) Result {
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = Noise
	}
	if len(pts) == 0 || eps <= 0 || minPts <= 0 {
		return Result{Labels: labels}
	}
	idx := index.New(opt.Index, pts, eps)

	visited := make([]bool, len(pts))
	var nbrs, queue []int
	next := 0
	for i := range pts {
		if visited[i] {
			continue
		}
		visited[i] = true
		if nbrs = idx.WithinAppend(pts[i], eps, nbrs[:0]); len(nbrs) < minPts {
			continue
		}
		labels[i] = next
		// Expand the cluster with a seed queue. A neighbor is claimed
		// when it is queued; one already claimed needs no second entry,
		// because claiming is permanent and its first entry is popped
		// first. A visited noise point is claimed as a border point.
		queue = enqueue(queue[:0], nbrs, labels, next)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if visited[j] {
				continue
			}
			visited[j] = true
			if nbrs = idx.WithinAppend(pts[j], eps, nbrs[:0]); len(nbrs) >= minPts {
				queue = enqueue(queue, nbrs, labels, next)
			}
		}
		next++
	}
	return Result{Labels: labels, NumClusters: next}
}

// enqueue labels every still-unclaimed point of nbrs with cluster c and
// appends it to queue, in neighbor order.
func enqueue(queue, nbrs, labels []int, c int) []int {
	for _, j := range nbrs {
		if labels[j] == Noise {
			labels[j] = c
			queue = append(queue, j)
		}
	}
	return queue
}
