package csd

import (
	"context"
	"math"
	"sort"

	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// Build constructs the City Semantic Diagram from a POI dataset and the
// stay points derived from a trajectory corpus (§4.1). Stay points only
// drive the popularity model; they are not stored.
func Build(pois []poi.POI, stays []geo.Point, params Params) *Diagram {
	d, _ := BuildEnv(stage.Background(), pois, stays, params)
	return d
}

// BuildEnv is the full-control constructor: each construction stage —
// popularity model, popularity clustering (Algorithm 1), semantic
// purification (Algorithm 2), unit merging — records a span under
// "csd.build", with counters for clusters grown, purification splits,
// units merged and singletons kept. The popularity sums, the
// per-component Algorithm 1 runs and the purification split trees run
// on env's worker pool; env.Opt.Index selects the spatial backend of
// every range structure built along the way. The diagram is identical
// for any worker budget. A canceled env.Ctx aborts between units of
// work with its error and a nil diagram.
func BuildEnv(env stage.Env, pois []poi.POI, stays []geo.Point, params Params) (*Diagram, error) {
	root := env.StartSpan("csd.build")
	defer root.End()
	return build(env, root, pois, stays, params, &popIndex{}, &components{})
}

// build is BuildEnv under a caller-opened root span: the full
// kernel-sum popularity (Eq. 2–3), filling pix with the POI side of the
// fold, then phase 2 filling cache.
func build(env stage.Env, root *obs.Span, pois []poi.POI, stays []geo.Point, params Params, pix *popIndex, cache *components) (*Diagram, error) {
	d := &Diagram{Params: params, POIs: pois, kernel: newKernelFor(params)}
	sp := root.Start("popularity")
	err := fault.Hit("csd.popularity")
	if err == nil {
		*pix = newPopIndex(d.kernel, poi.Locations(pois))
		d.Pop = make([]float64, len(pois))
		err = pix.fold(env.Ctx, env.Opt.Workers, geo.Pack(stays), d.Pop, nil)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	exec.Note(env.Trace, len(pix.strips), exec.Workers(env.Opt.Workers))
	if err := d.phase2(env, root, "", cache); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildFromPopularity runs construction phase 2 on a popularity vector
// computed elsewhere, recording spans under "csd.frompop". It is the
// assembly half of the sharded build: internal/shard computes per-POI
// popularity one tile at a time (exact, because the Gaussian kernel has
// compact R3σ support), scatters it into one global vector, and hands
// it here. The result is bit-identical to BuildEnv on the same (pois,
// stays) pair whenever pop matches BuildEnv's popularity stage
// bit-for-bit, for any worker count and index backend.
func BuildFromPopularity(env stage.Env, pois []poi.POI, pop []float64, params Params) (*Diagram, error) {
	root := env.StartSpan("csd.frompop")
	defer root.End()
	d := &Diagram{Params: params, POIs: pois, Pop: pop, kernel: newKernelFor(params)}
	if err := d.phase2(env, root, "", &components{}); err != nil {
		return nil, err
	}
	return d, nil
}

// newKernelFor builds the diagram's Gaussian kernel from its params.
func newKernelFor(params Params) geo.GaussianKernel {
	return geo.NewGaussianKernel(params.R3Sigma)
}

// phase2 is construction phase 2, everything after popularity:
// Algorithm 1 clustering, Algorithm 2 purification, the Eq. 6–8 merge,
// singletons and finalize, run on d.Pop. It is the only copy; its
// callers differ only in where the popularity came from and in the
// cache they pass. A one-shot build passes an empty cache and discards
// it, NewMaintainerEnv keeps it, and ApplyDelta passes a working copy
// with its dirty components emptied and commits it only if phase 2
// succeeds (on error the cache may hold partial results).
//
// The step spans go under root as prefix+"clustering" and
// prefix+"purification"; merging and finalize go directly under root
// when prefix is empty and under a prefix+"assemble" span otherwise.
// The ε_p decomposition of an empty cache runs inside the clustering
// span.
func (d *Diagram) phase2(env stage.Env, root *obs.Span, prefix string, cache *components) error {
	ctx, tr, opt := env.Ctx, env.Trace, env.Opt
	tr.SetGauge("index.backend", float64(opt.Index))

	sp := root.Start(prefix + "clustering")
	var regrown []int
	err := fault.Hit("csd.clustering")
	if err == nil {
		regrown, err = cache.grow(ctx, d, opt)
	}
	sp.End()
	if err != nil {
		return err
	}
	grown := 0
	for _, c := range regrown {
		grown += len(cache.comps[c].clusters)
	}
	tr.Add("csd.clusters.grown", int64(grown))

	if !d.Params.SkipPurification {
		sp = root.Start(prefix + "purification")
		if err = fault.Hit("csd.purification"); err == nil {
			err = cache.purify(ctx, d, tr, opt, regrown)
		}
		sp.End()
		if err != nil {
			return err
		}
	}

	parent := root
	if prefix != "" {
		parent = root.Start(prefix + "assemble")
		defer parent.End()
	}
	units, leftover := cache.units(d.Params.SkipPurification)
	if !d.Params.SkipMerging {
		sp = parent.Start("merging")
		before := len(units)
		if err = fault.Hit("csd.merging"); err == nil {
			units, leftover, err = d.merge(ctx, units, leftover, opt.Index)
		}
		sp.End()
		if err != nil {
			return err
		}
		tr.Add("csd.units.merged", int64(before-len(units)))
	}
	if d.Params.KeepSingletons {
		tr.Add("csd.singletons.kept", int64(len(leftover)))
		for _, i := range leftover {
			units = append(units, []int{i})
		}
	}
	sp = parent.Start("finalize")
	d.finalize(units, opt.Index)
	sp.End()
	tr.Add("csd.units.final", int64(len(d.Units)))
	return nil
}

// components is phase 2's per-component cache: the static ε_p range
// structure over POI locations, the partition of the POIs into
// ε_p-connected components, and each component's Algorithm 1–2 state.
// Algorithm 1's candidate queries and the decomposition both run
// against locIdx, so a component re-run sees exactly the query results
// the first run saw. The zero value is an empty cache.
type components struct {
	locIdx index.Index
	of     []int // POI id → component id
	comps  []compState
}

// compState is one ε_p-connected component's cache entry. It is filled
// once Algorithm 1 has run on it (every member then sits in a cluster
// or in leftover) and empty, to be regrown, while clusters and leftover
// are both nil.
type compState struct {
	// pois are the component's members, ascending.
	pois []int
	// clusters are the kept Algorithm 1 clusters grown within the
	// component, in seed order (each cluster's first element is its
	// seed, the minimum member id).
	clusters [][]int
	// leftover are members in no kept cluster, ascending.
	leftover []int
	// purified[i] are the Algorithm 2 unit member lists of clusters[i]
	// (nil when purification is skipped).
	purified [][][]int
}

// clusterRef addresses cluster i of component c.
type clusterRef struct{ c, i int }

// grow is Algorithm 1 over the cache. It decomposes an empty cache into
// ε_p components, re-runs growClusters on every empty component over
// the worker pool, and returns the regrown component ids ascending.
// Growth only follows ≤ ε_p edges, so a component run touches only its
// own members: concurrent runs write disjoint elements of the shared
// bookkeeping, and a clean component's retained clusters stay valid.
func (c *components) grow(ctx context.Context, d *Diagram, opt exec.Options) ([]int, error) {
	if c.locIdx == nil {
		c.locIdx = index.New(opt.Index, poi.Locations(d.POIs), d.Params.EpsP)
		c.of, c.comps = epsComponents(d.POIs, c.locIdx, d.Params.EpsP)
	}
	var regrow []int
	for k, cs := range c.comps {
		if cs.clusters == nil && cs.leftover == nil {
			regrow = append(regrow, k)
		}
	}
	removed := make([]bool, len(d.POIs))
	inCluster := make([]bool, len(d.POIs))
	err := exec.ParallelFor(ctx, opt.Workers, len(regrow), func(k int) error {
		cs := &c.comps[regrow[k]]
		var err error
		cs.clusters, cs.leftover, err = d.growClusters(ctx, c.locIdx, cs.pois, removed, inCluster)
		return err
	})
	return regrow, err
}

// epsComponents decomposes the POI set into ε_p-connected components by
// flood fill over locIdx. of maps POI id → component id; comps holds
// each component's POIs ascending, with components ordered by their
// minimum member id.
func epsComponents(pois []poi.POI, locIdx index.Index, epsP float64) (of []int, comps []compState) {
	n := len(pois)
	of = make([]int, n)
	for i := range of {
		of[i] = -1
	}
	// Each component's breadth-first queue is a window of one flat
	// buffer; once drained it is sorted in place into the member list.
	flat := make([]int, 0, n)
	var nbr []int
	for i := 0; i < n; i++ {
		if of[i] >= 0 {
			continue
		}
		c, start := len(comps), len(flat)
		of[i] = c
		flat = append(flat, i)
		for qi := start; qi < len(flat); qi++ {
			nbr = locIdx.WithinAppend(pois[flat[qi]].Location, epsP, nbr[:0])
			for _, k := range nbr {
				if of[k] < 0 {
					of[k] = c
					flat = append(flat, k)
				}
			}
		}
		ms := flat[start:len(flat):len(flat)]
		sort.Ints(ms)
		comps = append(comps, compState{pois: ms})
	}
	return of, comps
}

// growClusters is the growth loop of Algorithm 1 over an explicit seed
// order: each not-yet-removed seed grows a cluster by flood-fill over
// the ε_p range structure, keeping clusters of MinPts or more; seeds
// that end up in no kept cluster come back as leftover, in seed order.
// removed ("P ← P − {p}") and inCluster are the caller's bookkeeping
// and must be false for every POI reachable from seeds.
//
// components.grow passes one ε_p-connected component's members
// (ascending) at a time against one location index: cluster growth
// only ever follows ≤ ε_p edges, so a component run touches exactly
// that component's POIs and produces exactly the clusters a single
// ascending pass over every POI grows within it — the factorization
// both the parallel fan-out and the dirty-region rebuild rest on.
// Growth is inherently sequential (each removal changes the candidate
// set), so the loop stays on one goroutine and only polls ctx between
// seeds.
func (d *Diagram) growClusters(ctx context.Context, locIdx index.Index, seeds []int, removed, inCluster []bool) (clusters [][]int, leftover []int, err error) {
	// Scratch reused across seeds: the growth queue, the raw range-query
	// buffer and the candidate cluster. A kept cluster is copied out of
	// clBuf, so the reuse never aliases a result — and the (common)
	// sub-MinPts seeds allocate nothing at all.
	var queue, nbr, clBuf []int
	// enqueue appends the not-yet-removed POIs within ε_p of POI i —
	// the range(p, ε_p, P) of Algorithm 1's work queue V.
	enqueue := func(i int) {
		nbr = locIdx.WithinAppend(d.POIs[i].Location, d.Params.EpsP, nbr[:0])
		for _, j := range nbr {
			if !removed[j] {
				queue = append(queue, j)
			}
		}
	}
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if removed[seed] {
			continue
		}
		removed[seed] = true
		clBuf = append(clBuf[:0], seed)
		queue = queue[:0]
		enqueue(seed)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if removed[j] {
				continue
			}
			// Line 5: mutual popularity similarity against the seed.
			if !popRatioOK(d.Pop[seed], d.Pop[j], d.Params.Alpha) {
				continue
			}
			// Line 6: vertically stacked or same semantic property.
			if geo.Haversine(d.POIs[seed].Location, d.POIs[j].Location) > d.Params.DV &&
				d.POIs[j].Major() != d.POIs[seed].Major() {
				continue
			}
			removed[j] = true
			clBuf = append(clBuf, j)
			enqueue(j)
		}
		if len(clBuf) >= d.Params.MinPts {
			clusters = append(clusters, append([]int(nil), clBuf...))
			for _, i := range clBuf {
				inCluster[i] = true
			}
		}
	}
	for _, i := range seeds {
		if !inCluster[i] {
			leftover = append(leftover, i)
		}
	}
	return clusters, leftover, nil
}

// purify implements Algorithm 2 (Semantic Purification) for the
// clusters of the regrown components: clusters that are neither
// single-semantic nor spatially tight are split at the median KL
// divergence from the center POI's local semantic distribution, until
// every cluster qualifies as a fine-grained unit. KL and fallback-major
// splits are counted on tr (nil-safe). Each cluster's split tree is
// independent and deterministic, so the clusters fan out over the
// worker pool and the worker count never shows in the output.
func (c *components) purify(ctx context.Context, d *Diagram, tr *obs.Trace, opt exec.Options, regrown []int) error {
	var refs []clusterRef
	for _, k := range regrown {
		cs := &c.comps[k]
		cs.purified = make([][][]int, len(cs.clusters))
		for i := range cs.clusters {
			refs = append(refs, clusterRef{k, i})
		}
	}
	exec.Note(tr, len(refs), exec.Workers(opt.Workers))
	return exec.ParallelFor(ctx, opt.Workers, len(refs), func(j int) error {
		cs := &c.comps[refs[j].c]
		cs.purified[refs[j].i] = d.purifyCluster(cs.clusters[refs[j].i], tr)
		return nil
	})
}

// units reads the cache out in a single sequential pass's order.
// Clusters sort by seed id, since components interleave in id space.
// Purified unit lists concatenate in reverse cluster order, the order
// the original shared LIFO purification stack emitted (it processed
// cluster n-1's tree first, then n-2's, and so on). Leftovers merge
// ascending. Member lists are copied out: merge and finalize append to
// and sort them in place, and the cache must stay intact for reuse.
func (c *components) units(skipPurification bool) (units [][]int, leftover []int) {
	var refs []clusterRef
	for k, cs := range c.comps {
		for i := range cs.clusters {
			refs = append(refs, clusterRef{k, i})
		}
		leftover = append(leftover, cs.leftover...)
	}
	seed := func(r clusterRef) int { return c.comps[r.c].clusters[r.i][0] }
	sort.Slice(refs, func(a, b int) bool { return seed(refs[a]) < seed(refs[b]) })
	sort.Ints(leftover)
	for j := range refs {
		if skipPurification {
			r := refs[j]
			units = append(units, append([]int(nil), c.comps[r.c].clusters[r.i]...))
			continue
		}
		r := refs[len(refs)-1-j]
		for _, u := range c.comps[r.c].purified[r.i] {
			units = append(units, append([]int(nil), u...))
		}
	}
	return units, leftover
}

// purifyCluster runs one cluster's split tree to completion. The paper
// picks sub-clusters randomly; a work stack is equivalent and
// deterministic. The purifier caches the cluster's planar coordinates,
// major categories and pairwise kernel weights for the whole tree, so
// every sub-cluster works in local index space and no weight is
// computed twice.
func (d *Diagram) purifyCluster(cl []int, tr *obs.Trace) [][]int {
	pu := newPurifier(d, cl)
	local := make([]int, len(cl))
	for a := range local {
		local[a] = a
	}
	work := [][]int{local}
	var units [][]int
	for len(work) > 0 {
		ci := work[len(work)-1]
		work = work[:len(work)-1]
		if pu.singleSemantic(ci) || pu.variance(ci) < d.Params.VMin {
			units = append(units, pu.globalize(ci))
			continue
		}
		kept, split := pu.splitByKL(ci)
		if len(split) == 0 || len(kept) == 0 {
			// All KL values coincide (perfectly symmetric mixture); no
			// median split is possible. Fall back to splitting off the
			// largest single-major group, which always makes progress
			// on a multi-semantic cluster.
			kept, split = pu.splitByMajor(ci)
			if len(split) == 0 {
				units = append(units, pu.globalize(ci))
				continue
			}
			tr.Add("csd.purify.major_splits", 1)
		} else {
			tr.Add("csd.purify.kl_splits", 1)
		}
		work = append(work, kept, split)
	}
	return units
}

func medianOf(vals []float64) float64 {
	return medianSorting(append([]float64(nil), vals...))
}

// medianSorting returns the median of s, sorting it in place.
func medianSorting(s []float64) float64 {
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// merge implements the semantic-unit merging step: nearby units whose
// popularity-weighted semantic distributions (Equation (6)) have cosine
// similarity (Equation (8)) above the threshold fuse into one, and
// leftover POIs attach to a compatible nearby unit. It returns the
// merged clusters and the leftovers that attached nowhere. Union-find
// order matters, so the step is sequential; ctx is polled per unit.
func (d *Diagram) merge(ctx context.Context, clusters [][]int, leftover []int, kind index.Kind) ([][]int, []int, error) {
	if len(clusters) == 0 {
		return clusters, leftover, nil
	}
	parent := make([]int, len(clusters))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	centers := make([]geo.Point, len(clusters))
	dists := make([][]float64, len(clusters))
	for i, cl := range clusters {
		centers[i] = d.clusterCentroid(cl)
		dists[i] = d.popWeightedDistribution(cl)
	}
	centerIdx := index.New(kind, centers, d.Params.MergeDist)
	var nbr []int // range-query scratch, reused across both query loops
	for i := range clusters {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		nbr = centerIdx.WithinAppend(centers[i], d.Params.MergeDist, nbr[:0])
		for _, j := range nbr {
			if j <= i {
				continue
			}
			if cosine(dists[i], dists[j]) >= d.Params.MergeCos {
				union(i, j)
			}
		}
	}

	groups := make(map[int][]int)
	for i := range clusters {
		r := find(i)
		groups[r] = append(groups[r], clusters[i]...)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	merged := make([][]int, 0, len(groups))
	for _, r := range roots {
		merged = append(merged, groups[r])
	}

	// Attach leftover POIs to compatible nearby units.
	mergedCenters := make([]geo.Point, len(merged))
	mergedDists := make([][]float64, len(merged))
	for i, cl := range merged {
		mergedCenters[i] = d.clusterCentroid(cl)
		mergedDists[i] = d.popWeightedDistribution(cl)
	}
	mIdx := index.New(kind, mergedCenters, d.Params.MergeDist)
	var unattached []int
	var single [poi.NumMajors]float64
	for _, p := range leftover {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		single[d.POIs[p].Major()] = 1
		bestUnit, bestDist := -1, d.Params.MergeDist+1
		nbr = mIdx.WithinAppend(d.POIs[p].Location, d.Params.MergeDist, nbr[:0])
		for _, u := range nbr {
			if cosine(single[:], mergedDists[u]) < d.Params.MergeCos {
				continue
			}
			if dd := geo.Haversine(d.POIs[p].Location, mergedCenters[u]); dd < bestDist {
				bestUnit, bestDist = u, dd
			}
		}
		if bestUnit >= 0 {
			merged[bestUnit] = append(merged[bestUnit], p)
		} else {
			unattached = append(unattached, p)
		}
		single[d.POIs[p].Major()] = 0
	}
	return merged, unattached, nil
}

// clusterCentroid returns the centroid of a cluster's POI locations,
// summed in member order as geo.Centroid sums its points, so the bits
// are geo.Centroid's without gathering the locations into a slice.
func (d *Diagram) clusterCentroid(cl []int) geo.Point {
	if len(cl) == 0 {
		return geo.Point{}
	}
	var sLon, sLat float64
	for _, i := range cl {
		sLon += d.POIs[i].Location.Lon
		sLat += d.POIs[i].Location.Lat
	}
	n := float64(len(cl))
	return geo.Point{Lon: sLon / n, Lat: sLat / n}
}

// popWeightedDistribution computes Pr_u(s) of Equation (6): each major's
// share of the cluster's total popularity. Zero-popularity clusters fall
// back to uniform member counting so merging still has a signal.
func (d *Diagram) popWeightedDistribution(cl []int) []float64 {
	dist := make([]float64, poi.NumMajors)
	var total float64
	for _, i := range cl {
		dist[d.POIs[i].Major()] += d.Pop[i]
		total += d.Pop[i]
	}
	if total == 0 {
		for _, i := range cl {
			dist[d.POIs[i].Major()]++
		}
		total = float64(len(cl))
	}
	for k := range dist {
		dist[k] /= total
	}
	return dist
}

// cosine is the Cos(u_i, u_j) of Equations (7)–(8).
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (sqrt(na) * sqrt(nb))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// finalize materializes the units, the POI→unit map and the member
// spatial index (built on the requested backend).
func (d *Diagram) finalize(clusters [][]int, kind index.Kind) {
	d.unitOf = make([]int, len(d.POIs))
	for i := range d.unitOf {
		d.unitOf[i] = -1
	}
	d.Units = make([]Unit, 0, len(clusters))
	for _, cl := range clusters {
		if len(cl) == 0 {
			continue
		}
		sort.Ints(cl)
		u := Unit{ID: len(d.Units), Members: cl, Center: d.clusterCentroid(cl)}
		for _, i := range cl {
			u.Semantics = u.Semantics.Union(d.POIs[i].Semantics())
			d.unitOf[i] = u.ID
		}
		d.Units = append(d.Units, u)
	}
	for i, uid := range d.unitOf {
		if uid >= 0 {
			d.members = append(d.members, i)
		}
	}
	pts := make([]geo.Point, len(d.members))
	for k, i := range d.members {
		pts[k] = d.POIs[i].Location
	}
	d.memberPP = geo.Pack(pts)
	d.memberIdx = index.NewPacked(kind, d.memberPP, d.Params.R3Sigma)
}
