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
	"context"
	"math"

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

// popularity computes pop(p^I) for every POI per Equations (2)–(3):
// every POI's sum starts at zero and folds in all the stays.
func popularity(ctx context.Context, pois []poi.POI, stays []geo.Point, kernel geo.GaussianKernel, opt exec.Options) ([]float64, error) {
	pop := make([]float64, len(pois))
	if err := FoldPopularity(ctx, opt, kernel, poi.Locations(pois), geo.Pack(stays), pop, nil); err != nil {
		return nil, err
	}
	return pop, nil
}

// FoldPopularity is the one popularity loop of Equations (2)–(3): it
// adds to pop[i] the kernel weight of every stay in pp within R3σ of
// locs[i], and, when touched is non-nil, sets touched[i] if there was
// one. The full build folds all stays into zero sums, the Maintainer's
// delta folds a batch into a copy of the running sums, and a shard tile
// folds its halo stays into its owned POIs' sums.
//
// Each pop[i] takes its weights in ascending stay order:
// WithinSortedAppend returns the in-range ids ascending on every index
// backend, and WeightSumInto adds them one at a time. So the sums are
// bit-identical for any worker count and backend, and, because float
// addition does not associate, the order is also what keeps the other
// two callers exact. A delta batch's stays follow every earlier stay,
// so folding it into the running sums continues each chain where a full
// build over the union would; pre-summing the batch and adding once
// would round differently. A shard's halo stays come in ascending
// global id order, so a tile's fold is the full build's chain term for
// term.
//
// The loop fans out on opt's pool with one query buffer per worker
// slot; a sum never depends on a buffer's leftover contents. With one
// slot it runs inline as the caller's own loop, not as pool tasks, so a
// shard tile (itself one task of the shard fan-out) adds nothing to the
// pool's task count or its exec.task fault site.
func FoldPopularity(ctx context.Context, opt exec.Options, kernel geo.GaussianKernel, locs []geo.Point, pp *geo.PackedPoints, pop []float64, touched []bool) error {
	if pp.Len() == 0 {
		return nil
	}
	idx := index.NewPacked(opt.Index, pp, kernel.Radius())
	bufs := make([][]int, exec.Slots(opt.Workers, len(locs)))
	fold := func(slot, i int) error {
		buf := idx.WithinSortedAppend(locs[i], kernel.Radius(), bufs[slot][:0])
		bufs[slot] = buf
		if len(buf) > 0 {
			pop[i] = kernel.WeightSumInto(pop[i], locs[i], pp, buf)
			if touched != nil {
				touched[i] = true
			}
		}
		return nil
	}
	if len(bufs) > 1 {
		return exec.ParallelForSlots(ctx, opt.Workers, len(locs), fold)
	}
	for i := range locs {
		if err := ctx.Err(); err != nil {
			return err
		}
		fold(0, i)
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
