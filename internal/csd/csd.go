// Package csd implements the City Semantic Diagram (CSD), the paper's
// central data structure: a set of fine-grained semantic units
// (Definition 3) covering a city, built from a POI dataset and the
// stay points of a trajectory corpus in three steps (§4.1):
//
//  1. popularity-based clustering (Algorithm 1) groups POIs with
//     mutually similar popularity that are vertically stacked or share a
//     semantic category;
//  2. semantic purification (Algorithm 2) splits mixed clusters at the
//     median Kullback–Leibler divergence from the cluster center's local
//     semantic distribution, detecting semantic complexity;
//  3. semantic-unit merging joins nearby fragments whose popularity-
//     weighted semantic distributions have cosine similarity above a
//     threshold, and attaches leftover unclustered POIs to compatible
//     units.
package csd

import (
	"cmp"
	"context"
	"math"
	"slices"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
)

// Params are the CSD construction parameters with the defaults of §4.1.
type Params struct {
	// R3Sigma is the Gaussian kernel's 3σ radius in meters (100 m).
	R3Sigma float64
	// DV is the vertical-overlap distance d_v (15 m): POIs this close
	// are treated as stacked in one building regardless of semantics.
	DV float64
	// MinPts is MinPts_p (5): the minimum cluster size kept by
	// Algorithm 1.
	MinPts int
	// EpsP is the search radius ε_p (30 m) of Algorithm 1.
	EpsP float64
	// Alpha is the popularity-ratio threshold α (0.8): two POIs join
	// only when each's popularity is at least α of the other's.
	Alpha float64
	// VMin is the spatial-variance threshold (m²) below which a mixed-
	// semantics cluster is accepted as a unit (the skyscraper case of
	// Definition 3). 150 m² ≈ a 12 m spread.
	VMin float64
	// MergeCos is the cosine-similarity threshold of the merging step
	// (0.9 in the paper's experiments).
	MergeCos float64
	// MergeDist bounds the centroid distance (meters) between units
	// considered "nearby" for merging.
	MergeDist float64
	// KeepSingletons, when set, turns leftover POIs that merge with no
	// unit into singleton units instead of dropping them from the CSD.
	// The paper drops them; recognition ablations flip this.
	KeepSingletons bool
	// SkipPurification disables Algorithm 2 (ablation only).
	SkipPurification bool
	// SkipMerging disables the merging step (ablation only).
	SkipMerging bool
}

// DefaultParams returns the parameter values the paper settles on after
// testing (§4.1).
func DefaultParams() Params {
	return Params{
		R3Sigma:   100,
		DV:        15,
		MinPts:    5,
		EpsP:      30,
		Alpha:     0.8,
		VMin:      150,
		MergeCos:  0.9,
		MergeDist: 150,
	}
}

// Unit is one fine-grained semantic unit: a set of POIs homogeneous in
// location or semantics (Definition 3).
type Unit struct {
	// ID is the unit's index within the diagram.
	ID int
	// Members are indices into the diagram's POI slice.
	Members []int
	// Semantics is the union of the members' semantic properties.
	Semantics poi.Semantics
	// Center is the centroid of the members' locations.
	Center geo.Point
}

// Diagram is a built City Semantic Diagram (Definition 4). It is
// immutable after Build and safe for concurrent readers.
type Diagram struct {
	Params Params
	// POIs is the full input POI dataset.
	POIs []poi.POI
	// Pop[i] is pop(POIs[i]) per Equation (3).
	Pop []float64
	// Units are the fine-grained semantic units.
	Units []Unit
	// Generation is the diagram's lineage number under incremental
	// maintenance: 0 for a one-shot Build, 1 for a Maintainer's initial
	// construction, +1 per applied delta batch. It is carried in the
	// framed snapshot header (since framing v2), not the payload, so
	// two generations with identical content have byte-identical
	// payloads.
	Generation int64
	// ParentGeneration is the generation this diagram was derived from
	// (0 when it has no parent).
	ParentGeneration int64
	// unitOf maps each POI index to its unit ID, or -1 when the POI
	// belongs to no unit.
	unitOf []int
	// memberIdx indexes memberPP, the packed locations of unit-member
	// POIs only; its ids are member positions, and members[k] is the
	// POI index of position k.
	memberIdx index.Index
	memberPP  *geo.PackedPoints
	members   []int
	kernel    geo.GaussianKernel
}

// UnitOf returns the unit ID of POI i, or -1 when the POI is in no unit
// — the FindSemanticUnit(p, CSD) of Algorithm 3.
func (d *Diagram) UnitOf(i int) int { return d.unitOf[i] }

// Extent returns the bounding rectangle of the diagram's POI dataset
// (the zero Rect for an empty diagram). The serving layer uses it to
// sanity-check a replacement snapshot before hot-swapping: a diagram
// for a different city has a disjoint extent.
func (d *Diagram) Extent() geo.Rect {
	return geo.BoundingRect(poi.Locations(d.POIs))
}

// Kernel returns the Gaussian kernel the diagram was built with.
func (d *Diagram) Kernel() geo.GaussianKernel { return d.kernel }

// MembersWithinAppend appends the indices of unit-member POIs within
// radius meters of p — the range(sp, R3σ, CSD) of Algorithm 3 (POIs
// outside every unit do not participate in recognition) — into buf,
// under the same aliasing contract as index.Index.WithinAppend: the
// diagram never retains buf, and the caller must use the returned
// slice. Recognition loops reuse one buffer per worker to keep
// Algorithm 3 allocation-free.
func (d *Diagram) MembersWithinAppend(p geo.Point, radius float64, buf []int) []int {
	start := len(buf)
	buf = d.MemberSlotsWithinAppend(p, radius, buf)
	for k := start; k < len(buf); k++ {
		buf[k] = d.members[buf[k]]
	}
	return buf
}

// MemberSlotsWithinAppend is MembersWithinAppend without the remap: it
// appends member positions k, in the same order, for callers that read
// the member's packed coordinates (MemberPoints) as well as its POI
// index (Member).
func (d *Diagram) MemberSlotsWithinAppend(p geo.Point, radius float64, buf []int) []int {
	return d.memberIdx.WithinAppend(p, radius, buf)
}

// Member returns the POI index of member position k.
func (d *Diagram) Member(k int) int { return d.members[k] }

// MemberPoints returns the packed locations of the unit-member POIs,
// indexed by member position, Cos column included. The store is shared
// with the diagram's index and must not be modified.
func (d *Diagram) MemberPoints() *geo.PackedPoints { return d.memberPP }

// Coverage returns the fraction of input POIs that belong to some unit.
func (d *Diagram) Coverage() float64 {
	if len(d.POIs) == 0 {
		return 0
	}
	return float64(len(d.members)) / float64(len(d.POIs))
}

// UnitPurity returns the share of a unit's members belonging to its
// dominant major category — the semantic-consistency statistic reported
// for Figure 6.
func (d *Diagram) UnitPurity(u Unit) float64 {
	if len(u.Members) == 0 {
		return 0
	}
	var counts [poi.NumMajors]int
	for _, i := range u.Members {
		counts[d.POIs[i].Major()]++
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(len(u.Members))
}

// MeanUnitPurity averages UnitPurity over all units (0 when empty).
func (d *Diagram) MeanUnitPurity() float64 {
	if len(d.Units) == 0 {
		return 0
	}
	var sum float64
	for _, u := range d.Units {
		sum += d.UnitPurity(u)
	}
	return sum / float64(len(d.Units))
}

// FoldPopularity is Equations (2)–(3) for one set of locations: it
// adds to pop[i] the kernel weight of every stay in pp within R3σ of
// locs[i], and, when touched is non-nil, sets touched[i] if there was
// one. It builds the locations' popIndex and folds pp through it once;
// a shard tile calls it for its owned POIs and halo stays, while the
// full build and the Maintainer hold their popIndex and call fold. On
// error pop may be partly folded, so every caller folds into sums it
// discards on failure. The sums never depend on opt.Index: the POI
// side is always a grid, and no backend changes a sum.
func FoldPopularity(ctx context.Context, opt exec.Options, kernel geo.GaussianKernel, locs []geo.Point, pp *geo.PackedPoints, pop []float64, touched []bool) error {
	x := newPopIndex(kernel, locs)
	return x.fold(ctx, opt.Workers, pp, pop, touched)
}

// popStrips is the fixed number of longitude strips a popIndex splits
// its POIs into. It is the fold's task count and does not follow the
// worker budget: more strips than workers let the pool balance strips
// whose stay density differs.
const popStrips = 16

// popHaloSlack widens each strip's halo beyond R3σ, in meters. The halo
// rectangle is exact in the spherical model but the range test is
// floating-point Haversine, so the slack keeps a stay a rounding error
// inside R3σ from being skipped; the grid query still decides which
// POIs are in range.
const popHaloSlack = 1.0

// popIndex is the POI side of the popularity fold: the locations split
// by longitude into at most popStrips strips of near-equal size, each
// with its own grid. It is immutable after newPopIndex, so one index
// serves any number of folds; the Maintainer builds one for its static
// POIs and reuses it for every delta.
type popIndex struct {
	kernel geo.GaussianKernel
	strips []popStrip
}

// popStrip is one strip: ids are the global location indices of its
// POIs, ascending; pp packs their locations (position k is ids[k]) and
// idx is a grid over pp; halo holds every point within R3σ of a strip
// POI, so a stay outside it skips the strip's grid.
type popStrip struct {
	ids  []int
	pp   *geo.PackedPoints
	idx  index.Index
	halo geo.Rect
}

// newPopIndex splits locs into strips and builds each strip's grid.
func newPopIndex(kernel geo.GaussianKernel, locs []geo.Point) popIndex {
	x := popIndex{kernel: kernel}
	order := make([]int, len(locs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(locs[a].Lon, locs[b].Lon) })
	n := min(popStrips, len(locs))
	for s := range n {
		ids := order[s*len(locs)/n : (s+1)*len(locs)/n]
		slices.Sort(ids)
		pts := make([]geo.Point, len(ids))
		for k, i := range ids {
			pts[k] = locs[i]
		}
		pp := geo.Pack(pts)
		x.strips = append(x.strips, popStrip{
			ids:  ids,
			pp:   pp,
			idx:  index.NewPacked(index.KindGrid, pp, kernel.Radius()),
			halo: geo.BoundingRect(pts).ExpandMeters(kernel.Radius() + popHaloSlack),
		})
	}
	return x
}

// ctxPoll is how many stays a strip folds between context checks.
const ctxPoll = 1024

// fold is the one popularity loop of Equations (2)–(3). Each strip
// visits the stays of pp in ascending id order, range-queries its grid
// around each stay and adds the stay's kernel weight to every POI in
// range, so each POI takes its weights one addition at a time in
// ascending stay order, whatever the strip layout, the worker count or
// the order one query returns its ids in. That order is what keeps the
// three popularity paths exact, because float addition does not
// associate. The full build folds all stays into zero sums. A delta
// batch's stays follow every earlier stay, so the Maintainer folding it
// into the running sums continues each chain where a full build over
// the union would; pre-summing the batch and adding once would round
// differently. A shard's halo stays come in ascending global id order,
// so a tile's fold is the full build's chain term for term.
//
// The strips fan out on a pool of the given worker budget. A strip
// sums into a local copy of its POIs' entries of pop and writes them
// back at the end, so no two workers write near the same cache line
// while folding. With one worker the strips run inline as the caller's
// own loop, not as pool tasks, so a shard tile (itself one task of the
// shard fan-out) adds nothing to the pool's task count or its exec.task
// fault site.
func (x popIndex) fold(ctx context.Context, workers int, pp *geo.PackedPoints, pop []float64, touched []bool) error {
	if pp.Len() == 0 {
		return nil
	}
	r := x.kernel.Radius()
	strip := func(_, s int) error {
		st := &x.strips[s]
		acc := make([]float64, len(st.ids))
		for k, i := range st.ids {
			acc[k] = pop[i]
		}
		var hit []bool
		if touched != nil {
			hit = make([]bool, len(st.ids))
		}
		var buf []int
		for j := range pp.Len() {
			if j%ctxPoll == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			p := pp.At(j)
			if !st.halo.Contains(p) {
				continue
			}
			buf = st.idx.WithinAppend(p, r, buf[:0])
			for _, k := range buf {
				acc[k] += x.kernel.WeightCos(st.pp.At(k), st.pp.Cos[k], p, pp.Cos[j])
				if hit != nil {
					hit[k] = true
				}
			}
		}
		for k, i := range st.ids {
			pop[i] = acc[k]
			if hit != nil && hit[k] {
				touched[i] = true
			}
		}
		return nil
	}
	if exec.Slots(workers, len(x.strips)) > 1 {
		return exec.ParallelForSlots(ctx, workers, len(x.strips), strip)
	}
	for s := range x.strips {
		if err := strip(0, s); err != nil {
			return err
		}
	}
	return nil
}

// popRatioOK implements line 5 of Algorithm 1: both popularity ratios
// must be at least α. Two zero-popularity POIs are mutually similar;
// a zero against a non-zero is not.
func popRatioOK(a, b, alpha float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	if a == 0 || b == 0 {
		return false
	}
	return a/b >= alpha && b/a >= alpha
}

// klEpsilon smooths zero probabilities in Equation (5); the paper does
// not define KL at zero mass.
const klEpsilon = 1e-6

// klDivergence computes KL(p‖q) over aligned distributions with additive
// smoothing.
func klDivergence(p, q []float64) float64 {
	n := float64(len(p))
	var kl float64
	for i := range p {
		ps := (p[i] + klEpsilon) / (1 + klEpsilon*n)
		qs := (q[i] + klEpsilon) / (1 + klEpsilon*n)
		kl += ps * math.Log(ps/qs)
	}
	if kl < 0 {
		kl = 0 // numerical floor: KL is non-negative
	}
	return kl
}
