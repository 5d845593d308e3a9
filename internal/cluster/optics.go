package cluster

import (
	"math"
	"sort"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
)

// OpticsResult holds the OPTICS ordering and reachability plot. The
// paper's Algorithm 4 uses OPTICS so the distance threshold need not be
// configured: clusters are cut out of the reachability plot afterwards.
type OpticsResult struct {
	pts []geo.Point
	// px/py are the packed planar coordinates, aliased from the same
	// SoA store the spatial index was built over (one batch projection
	// serves both).
	px, py []float64
	// Order is the OPTICS processing order of point indices.
	Order []int
	// Reach[i] is the reachability distance of point i (meters);
	// +Inf for points never reached within MaxEps.
	Reach []float64
	// CoreDist[i] is the core distance of point i; +Inf for non-core.
	CoreDist []float64
	minPts   int
	maxEps   float64
}

// Optics computes the OPTICS ordering of pts with the given generating
// maximum radius maxEps (meters) and core threshold minPts.
func Optics(pts []geo.Point, maxEps float64, minPts int) *OpticsResult {
	return OpticsWith(pts, maxEps, minPts, exec.Options{})
}

// OpticsWith is Optics with execution-layer options: the spatial index
// backend comes from opt.Index. Each point's neighborhood is queried
// once, when the walk processes it, into one reused buffer, so the
// working set is one neighborhood rather than all of them. The
// ordering and reachability plot do not depend on opt.Workers.
func OpticsWith(pts []geo.Point, maxEps float64, minPts int, opt exec.Options) *OpticsResult {
	n := len(pts)
	res := &OpticsResult{
		pts:      pts,
		Reach:    make([]float64, n),
		CoreDist: make([]float64, n),
		minPts:   minPts,
		maxEps:   maxEps,
	}
	for i := range res.Reach {
		res.Reach[i] = math.Inf(1)
		res.CoreDist[i] = math.Inf(1)
	}
	if n == 0 || maxEps <= 0 || minPts <= 0 {
		return res
	}
	// Index and clustering share one packed SoA store: the index build
	// batch-projects it at the centroid — the same origin (and the same
	// per-point bits) the previous per-point projection produced — and
	// the reachability math below reads the planar slices directly. All
	// internal distance math runs in this local planar projection: at
	// city scale the distortion is far below the reachability resolution
	// the extraction steps care about, and it avoids spherical trig in
	// the innermost loops.
	pp := geo.Pack(pts)
	idx := index.NewPacked(opt.Index, pp, maxEps)
	pp.EnsureProjected()
	res.px, res.py = pp.X, pp.Y
	w := &opticsWalk{res: res, idx: idx, processed: make([]bool, n), seeds: newSeedQueue(n)}

	// One queue serves every component: it always drains empty before the
	// next start point, and Pop resets the popped id's position slot, so
	// the queue is back to its pristine state without reallocation.
	for start := 0; start < n; start++ {
		if w.processed[start] {
			continue
		}
		w.visit(start)
		for w.seeds.Len() > 0 {
			if cur := w.seeds.pop().id; !w.processed[cur] {
				w.visit(cur)
			}
		}
	}
	return res
}

// opticsWalk is the state of the sequential OPTICS walk. Its three
// buffers hold one neighborhood at a time and are reused across visits.
type opticsWalk struct {
	res       *OpticsResult
	idx       index.Index
	processed []bool
	seeds     *seedQueue
	nbrs      []int     // the visited point's neighbor ids, in query order
	d2        []float64 // squared planar distance to each of nbrs
	sel       []float64 // quickselect scratch over a copy of d2
}

// visit processes point i: it appends i to the ordering, queries its
// neighborhood, sets its core distance (the minPts-th smallest
// distance, itself included) and, when i is a core point, relaxes the
// reachability of its unprocessed neighbors in neighbor order.
func (w *opticsWalk) visit(i int) {
	res := w.res
	w.processed[i] = true
	res.Order = append(res.Order, i)
	w.nbrs = w.idx.WithinAppend(res.pts[i], res.maxEps, w.nbrs[:0])
	if len(w.nbrs) < res.minPts {
		return // not a core point: CoreDist stays +Inf
	}
	w.d2 = w.d2[:0]
	for _, j := range w.nbrs {
		dx := res.px[i] - res.px[j]
		dy := res.py[i] - res.py[j]
		w.d2 = append(w.d2, dx*dx+dy*dy)
	}
	// The k-th smallest value does not depend on the order quickselect
	// leaves behind, but the relaxation below needs d2 in neighbor order.
	w.sel = append(w.sel[:0], w.d2...)
	cd := math.Sqrt(quickselect(w.sel, res.minPts-1))
	res.CoreDist[i] = cd
	for k, j := range w.nbrs {
		if w.processed[j] {
			continue
		}
		newReach := math.Max(cd, math.Sqrt(w.d2[k]))
		if newReach < res.Reach[j] {
			res.Reach[j] = newReach
			w.seeds.upsert(j, newReach)
		}
	}
}

// ExtractDBSCAN cuts the reachability plot at eps, yielding the clusters
// DBSCAN(eps, minPts) would produce (up to border-point assignment).
func (o *OpticsResult) ExtractDBSCAN(eps float64) Result {
	labels := make([]int, len(o.pts))
	for i := range labels {
		labels[i] = Noise
	}
	cluster := -1
	for _, i := range o.Order {
		if o.Reach[i] > eps {
			if o.CoreDist[i] <= eps {
				cluster++
				labels[i] = cluster
			}
			// else: noise
		} else if cluster >= 0 {
			labels[i] = cluster
		}
	}
	return Result{Labels: labels, NumClusters: cluster + 1}
}

// ExtractAuto chooses a cut threshold from the reachability plot itself —
// the paper's "optimal distance threshold with sufficiently high density"
// — and extracts clusters at it. The threshold is placed at the largest
// relative gap in the sorted finite reachability values (the knee that
// separates intra-cluster from inter-cluster reachabilities); when the
// plot has no meaningful gap the generating maxEps is used.
func (o *OpticsResult) ExtractAuto() Result {
	var finite []float64
	for _, r := range o.Reach {
		if !math.IsInf(r, 1) {
			finite = append(finite, r)
		}
	}
	if len(finite) < 2 {
		return o.ExtractDBSCAN(o.maxEps)
	}
	sort.Float64s(finite)
	// Search for the biggest multiplicative jump in the upper half of the
	// plot; cuts in the lower half would shatter genuine clusters.
	cut := o.maxEps
	bestRatio := 1.5 // require a clear gap before trusting it
	for i := len(finite) / 2; i+1 < len(finite); i++ {
		lo, hi := finite[i], finite[i+1]
		if lo <= 0 {
			continue
		}
		if ratio := hi / lo; ratio > bestRatio {
			bestRatio = ratio
			cut = (lo + hi) / 2
		}
	}
	return o.ExtractDBSCAN(cut)
}

// ExtractLeaves extracts clusters with a per-cluster distance threshold
// — §4.3's "optimal distance threshold with sufficiently high density
// for each cluster". The reachability plot is split recursively at its
// dominant spikes: a spike separates two sub-plots when it towers over
// their internal reachabilities by splitRatio; recursion stops when a
// sub-plot has no such spike, and the sub-plot becomes one cluster when
// it holds at least minPts points (noise otherwise). Compared to a
// single global cut, nearby dense clusters separated by a modest gap
// are recovered individually instead of being merged.
func (o *OpticsResult) ExtractLeaves(minPts int) Result {
	const splitRatio = 1.6
	labels := make([]int, len(o.pts))
	for i := range labels {
		labels[i] = Noise
	}
	res := Result{Labels: labels}
	var recurse func(lo, hi int)
	recurse = func(lo, hi int) {
		if hi-lo < minPts {
			return
		}
		// The first point of an interval was reached from outside; its
		// reachability describes the jump INTO the interval, so spikes
		// are sought strictly inside. A split is only worthwhile when
		// both sides could still form a cluster: a spike that merely
		// chips stragglers off a viable cluster is ignored, except for
		// infinite spikes (genuinely unreachable jumps), which always
		// separate.
		spike := -1
		spikeVal := 0.0
		for i := lo + 1; i < hi; i++ {
			r := o.Reach[o.Order[i]]
			if r <= spikeVal {
				continue
			}
			if !math.IsInf(r, 1) && (i-lo < minPts || hi-i < minPts) {
				continue
			}
			spikeVal = r
			spike = i
		}
		if spike < 0 {
			// Only straggler-chipping spikes remain: one cluster.
			cid := res.NumClusters
			res.NumClusters++
			for i := lo; i < hi; i++ {
				labels[o.Order[i]] = cid
			}
			return
		}
		// Compare the spike with the typical internal reachability.
		internal := make([]float64, 0, hi-lo)
		for i := lo + 1; i < hi; i++ {
			if i != spike && !math.IsInf(o.Reach[o.Order[i]], 1) {
				internal = append(internal, o.Reach[o.Order[i]])
			}
		}
		med := medianFloat(internal)
		if !math.IsInf(spikeVal, 1) && (med <= 0 || spikeVal < med*splitRatio) {
			// No dominant spike: this interval is one cluster.
			cid := res.NumClusters
			res.NumClusters++
			for i := lo; i < hi; i++ {
				labels[o.Order[i]] = cid
			}
			return
		}
		recurse(lo, spike)
		recurse(spike, hi)
	}
	recurse(0, len(o.Order))
	return res
}

func medianFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quickselect returns the k-th smallest value of vals (0-based),
// partially reordering vals in place. Hoare-style selection: expected
// linear time, no allocation.
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

// seedItem is an entry of the OPTICS priority queue.
type seedItem struct {
	id    int
	reach float64
}

// seedQueue is an indexed min-heap over reachability distances. It is
// hand-rolled rather than built on container/heap — whose any-typed
// interface boxes every pushed item — and the position table is a dense
// slice over point ids (-1 = absent) rather than a map: upsert is the
// innermost OPTICS operation and must be allocation-free.
type seedQueue struct {
	items []seedItem
	pos   []int // pos[id] = heap index of id, or -1 when not queued
}

// newSeedQueue sizes the position table for point ids [0, n).
func newSeedQueue(n int) *seedQueue {
	q := &seedQueue{pos: make([]int, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// Len returns the number of queued seeds.
func (q *seedQueue) Len() int { return len(q.items) }

func (q *seedQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].id] = i
	q.pos[q.items[j].id] = j
}

func (q *seedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].reach <= q.items[i].reach {
			break
		}
		q.swap(parent, i)
		i = parent
	}
}

func (q *seedQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].reach < q.items[smallest].reach {
			smallest = l
		}
		if r < n && q.items[r].reach < q.items[smallest].reach {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(smallest, i)
		i = smallest
	}
}

// pop removes and returns the seed with the smallest reachability.
func (q *seedQueue) pop() seedItem {
	root := q.items[0]
	last := len(q.items) - 1
	q.swap(0, last)
	q.items = q.items[:last]
	q.pos[root.id] = -1
	if last > 0 {
		q.down(0)
	}
	return root
}

// upsert inserts id with the given reachability or decreases its key.
func (q *seedQueue) upsert(id int, reach float64) {
	if i := q.pos[id]; i >= 0 {
		q.items[i].reach = reach
		q.up(i) // upsert only ever decreases the key
		return
	}
	q.pos[id] = len(q.items)
	q.items = append(q.items, seedItem{id: id, reach: reach})
	q.up(len(q.items) - 1)
}
