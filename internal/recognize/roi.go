package recognize

import (
	"csdm/internal/cluster"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// ROIParams configure the hot-region baseline of [21].
type ROIParams struct {
	// Eps is the DBSCAN radius (meters) for hot-region detection over
	// stay points.
	Eps float64
	// MinPts is the DBSCAN core threshold.
	MinPts int
	// AnnotateRadius bounds the POI search around a stay point when
	// attaching the semantic description inside a hot region.
	AnnotateRadius float64
	// TagShare is the minimum share of the in-range POIs a major
	// category needs to enter the stay's semantic description.
	TagShare float64
}

// DefaultROIParams follow the hybrid algorithm of [21] at city scale.
// AnnotateRadius works at hot-region scale — [21] attaches semantics to
// whole regions, not to individual venues — so it is wider than the
// CSD's R3σ search. The width is the source of the baseline's
// coarseness: stays far from a venue still inherit its category.
func DefaultROIParams() ROIParams {
	return ROIParams{Eps: 120, MinPts: 30, AnnotateRadius: 120, TagShare: 0.15}
}

// ROIRecognizer is the Region-of-Interest baseline of Chen et al. [21]:
// DBSCAN detects hot regions from historical stay points, and a stay
// point falling inside a hot region receives its semantic description
// from the POIs spatially overlapping it — the prominent categories
// (share ≥ TagShare) within AnnotateRadius. Stay points outside every
// hot region stay unannotated.
//
// Because region purity is uncontrolled — there is no purification step
// — nearby stay points in a semantically complex region receive
// different tag sets depending on which POIs happen to fall in range
// under GPS noise. That weak consistency is exactly what the CSD's
// purification and unit voting are designed to fix (§2, §4.2).
type ROIRecognizer struct {
	params ROIParams
	// regionOf[i] is the hot region of historical stay i (or noise).
	regionOf []int
	stayIdx  index.Index
	stays    []geo.Point
	nRegions int
	pois     []poi.POI
	poiIdx   index.Index
}

// NewROIRecognizer builds the baseline from historical stay-point
// locations and the POI dataset.
func NewROIRecognizer(stays []geo.Point, pois []poi.POI, params ROIParams) *ROIRecognizer {
	return NewROIRecognizerEnv(stage.Background(), stays, pois, params)
}

// NewROIRecognizerEnv is NewROIRecognizer under a stage environment:
// hot-region DBSCAN and the lookup structures use the env.Opt.Index
// backend.
func NewROIRecognizerEnv(env stage.Env, stays []geo.Point, pois []poi.POI, params ROIParams) *ROIRecognizer {
	opt := env.Opt
	res := cluster.DBSCANWith(stays, params.Eps, params.MinPts, opt)
	return &ROIRecognizer{
		params:   params,
		stays:    stays,
		regionOf: res.Labels,
		nRegions: res.NumClusters,
		stayIdx:  index.New(opt.Index, stays, params.Eps),
		pois:     pois,
		poiIdx:   index.New(opt.Index, poi.Locations(pois), params.AnnotateRadius),
	}
}

// Name implements Recognizer.
func (r *ROIRecognizer) Name() string { return "ROI" }

// NumRegions returns the number of detected hot regions.
func (r *ROIRecognizer) NumRegions() int { return r.nRegions }

// InRegion reports whether p falls inside a hot region (within Eps of a
// region member).
func (r *ROIRecognizer) InRegion(p geo.Point) bool {
	for _, si := range r.stayIdx.Within(p, r.params.Eps) {
		if r.regionOf[si] >= 0 {
			return true
		}
	}
	return false
}

// Recognize implements Recognizer: inside a hot region, the stay point
// inherits the union of the categories of the POIs within
// AnnotateRadius; outside every region it stays unannotated.
func (r *ROIRecognizer) Recognize(p geo.Point) poi.Semantics {
	var sc Scratch
	return r.RecognizeBuf(p, &sc)
}

// RecognizeBuf implements BufferedRecognizer; sc.ids serves both the
// region-membership and the POI range query in turn.
func (r *ROIRecognizer) RecognizeBuf(p geo.Point, sc *Scratch) poi.Semantics {
	sc.ids = r.stayIdx.WithinAppend(p, r.params.Eps, sc.ids[:0])
	in := false
	for _, si := range sc.ids {
		if r.regionOf[si] >= 0 {
			in = true
			break
		}
	}
	if !in {
		return 0
	}
	var counts [poi.NumMajors]int
	total := 0
	sc.ids = r.poiIdx.WithinAppend(p, r.params.AnnotateRadius, sc.ids[:0])
	for _, pi := range sc.ids {
		counts[r.pois[pi].Major()]++
		total++
	}
	var tags poi.Semantics
	for mj := 0; mj < poi.NumMajors; mj++ {
		if total > 0 && float64(counts[mj]) >= r.params.TagShare*float64(total) {
			tags = tags.Add(poi.Major(mj))
		}
	}
	return tags
}
