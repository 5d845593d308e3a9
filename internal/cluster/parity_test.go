package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
)

// refNeighborhoods answers every point's range query up front, the way
// the density-based algorithms did before they queried on visit.
func refNeighborhoods(idx index.Index, pts []geo.Point, eps float64) [][]int {
	out := make([][]int, len(pts))
	for i, p := range pts {
		out[i] = idx.WithinAppend(p, eps, nil)
	}
	return out
}

// refOptics is the precomputed-neighborhood OPTICS: every neighborhood
// and every core distance is computed before the ordering walk starts.
func refOptics(pts []geo.Point, maxEps float64, minPts int, kind index.Kind) *OpticsResult {
	n := len(pts)
	res := &OpticsResult{pts: pts, Reach: make([]float64, n), CoreDist: make([]float64, n), minPts: minPts, maxEps: maxEps}
	for i := range res.Reach {
		res.Reach[i] = math.Inf(1)
		res.CoreDist[i] = math.Inf(1)
	}
	if n == 0 || maxEps <= 0 || minPts <= 0 {
		return res
	}
	pp := geo.Pack(pts)
	idx := index.NewPacked(kind, pp, maxEps)
	nbrs := refNeighborhoods(idx, pts, maxEps)
	pp.EnsureProjected()
	px, py := pp.X, pp.Y
	for i, neighbors := range nbrs {
		if len(neighbors) < minPts {
			continue
		}
		var ds []float64
		for _, j := range neighbors {
			dx, dy := px[i]-px[j], py[i]-py[j]
			ds = append(ds, dx*dx+dy*dy)
		}
		res.CoreDist[i] = math.Sqrt(quickselect(ds, minPts-1))
	}
	processed := make([]bool, n)
	seeds := newSeedQueue(n)
	relax := func(center int) {
		cd := res.CoreDist[center]
		for _, j := range nbrs[center] {
			if processed[j] {
				continue
			}
			dx, dy := px[center]-px[j], py[center]-py[j]
			if r := math.Max(cd, math.Sqrt(dx*dx+dy*dy)); r < res.Reach[j] {
				res.Reach[j] = r
				seeds.upsert(j, r)
			}
		}
	}
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		processed[start] = true
		res.Order = append(res.Order, start)
		if math.IsInf(res.CoreDist[start], 1) {
			continue
		}
		relax(start)
		for seeds.Len() > 0 {
			cur := seeds.pop().id
			if processed[cur] {
				continue
			}
			processed[cur] = true
			res.Order = append(res.Order, cur)
			if !math.IsInf(res.CoreDist[cur], 1) {
				relax(cur)
			}
		}
	}
	return res
}

// refDBSCAN is the precomputed-neighborhood DBSCAN, whose seed queue
// takes every neighbor of every core point, duplicates included.
func refDBSCAN(pts []geo.Point, eps float64, minPts int, kind index.Kind) Result {
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = Noise
	}
	if len(pts) == 0 || eps <= 0 || minPts <= 0 {
		return Result{Labels: labels}
	}
	neighbors := refNeighborhoods(index.New(kind, pts, eps), pts, eps)
	visited := make([]bool, len(pts))
	next := 0
	for i := range pts {
		if visited[i] {
			continue
		}
		visited[i] = true
		if len(neighbors[i]) < minPts {
			continue
		}
		labels[i] = next
		queue := append([]int(nil), neighbors[i]...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = next
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = next
			if jn := neighbors[j]; len(jn) >= minPts {
				queue = append(queue, jn...)
			}
		}
		next++
	}
	return Result{Labels: labels, NumClusters: next}
}

// parityInputs are tie-heavy point sets: an exact lon/lat lattice
// (many equal distances), a lattice with every point repeated (zero
// distances and identical neighborhoods), and blobs with noise and
// duplicates mixed in.
func parityInputs() map[string][]geo.Point {
	var lattice []geo.Point
	for i := 0; i < 15; i++ {
		for j := 0; j < 12; j++ {
			lattice = append(lattice, geo.Point{Lon: origin.Lon + float64(i)*1e-4, Lat: origin.Lat + float64(j)*1e-4})
		}
	}
	var dup []geo.Point
	for _, p := range lattice[:60] {
		dup = append(dup, p, p, p)
	}
	rng := rand.New(rand.NewSource(5))
	mixed := threeBlobs(rng)
	mixed = append(mixed, blob(rng, 40, 500, 500, 400)...)
	mixed = append(mixed, mixed[:30]...)
	mixed = append(mixed, lattice[:40]...)
	return map[string][]geo.Point{"lattice": lattice, "duplicated": dup, "mixed": mixed}
}

// TestOpticsMatchesPrecomputedReference pins querying on visit against
// the precomputed-neighborhood walk: Order, Reach and CoreDist must be
// the same bits on every backend and for minPts 1, 2 and 20.
func TestOpticsMatchesPrecomputedReference(t *testing.T) {
	for name, pts := range parityInputs() {
		for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
			for _, minPts := range []int{1, 2, 20} {
				for _, eps := range []float64{12, 40, 300} {
					t.Run(fmt.Sprintf("%s/%v/minPts=%d/eps=%g", name, kind, minPts, eps), func(t *testing.T) {
						want := refOptics(pts, eps, minPts, kind)
						got := Optics(pts, eps, minPts, exec.Options{Index: kind})
						if len(got.Order) != len(want.Order) {
							t.Fatalf("order length %d, want %d", len(got.Order), len(want.Order))
						}
						for i := range want.Order {
							if got.Order[i] != want.Order[i] {
								t.Fatalf("Order[%d] = %d, want %d", i, got.Order[i], want.Order[i])
							}
						}
						for i := range want.Reach {
							if math.Float64bits(got.Reach[i]) != math.Float64bits(want.Reach[i]) {
								t.Fatalf("Reach[%d] = %v, want %v", i, got.Reach[i], want.Reach[i])
							}
							if math.Float64bits(got.CoreDist[i]) != math.Float64bits(want.CoreDist[i]) {
								t.Fatalf("CoreDist[%d] = %v, want %v", i, got.CoreDist[i], want.CoreDist[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestDBSCANMatchesPrecomputedReference pins querying on visit, and the
// deduplicated seed queue, against the precomputed-neighborhood DBSCAN:
// the labels must be equal on every backend and for minPts 1, 2 and 20.
func TestDBSCANMatchesPrecomputedReference(t *testing.T) {
	for name, pts := range parityInputs() {
		for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
			for _, minPts := range []int{1, 2, 20} {
				for _, eps := range []float64{12, 40, 300} {
					want := refDBSCAN(pts, eps, minPts, kind)
					got := DBSCAN(pts, eps, minPts, exec.Options{Index: kind})
					if got.NumClusters != want.NumClusters {
						t.Fatalf("%s/%v/minPts=%d/eps=%g: %d clusters, want %d", name, kind, minPts, eps, got.NumClusters, want.NumClusters)
					}
					for i := range want.Labels {
						if got.Labels[i] != want.Labels[i] {
							t.Fatalf("%s/%v/minPts=%d/eps=%g: Labels[%d] = %d, want %d", name, kind, minPts, eps, i, got.Labels[i], want.Labels[i])
						}
					}
				}
			}
		}
	}
}

// quickselect returns the k-th smallest value of vals (0-based),
// partially reordering vals in place. Hoare-style selection: expected
// linear time, no allocation. It was OPTICS's core-distance selection
// before keepSmallest and stays the reference the parity tests use.
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		pivot := vals[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[k]
}
