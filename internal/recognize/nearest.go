package recognize

import (
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
)

// NearestPOIRecognizer annotates a stay point with the category of the
// single nearest POI within a radius. It is the naive strategy §4.2
// argues against ("find the POI with largest visited probability") and
// exists for the voting-vs-nearest ablation: under GPS noise near unit
// boundaries it flip-flops between categories.
type NearestPOIRecognizer struct {
	pois   []poi.POI
	locs   []geo.Point
	idx    index.Index
	radius float64
}

// NewNearestPOIRecognizer indexes the POI set on the requested backend;
// radius bounds the search (the paper's R3σ is the natural choice).
// Earlier versions hardcoded the grid here, so an rtree/kdtree pipeline
// silently ran its ablation baseline on a different backend than every
// other stage.
func NewNearestPOIRecognizer(pois []poi.POI, radius float64, kind index.Kind) *NearestPOIRecognizer {
	locs := poi.Locations(pois)
	return &NearestPOIRecognizer{
		pois:   pois,
		locs:   locs,
		idx:    index.New(kind, locs, radius),
		radius: radius,
	}
}

// Name implements Recognizer.
func (r *NearestPOIRecognizer) Name() string { return "NearestPOI" }

// RecognizeBuf implements Recognizer: the closest POI of a range
// query at the radius, queried into sc's id buffer, so a warmed Scratch
// makes the call allocation-free.
func (r *NearestPOIRecognizer) RecognizeBuf(p geo.Point, sc *Scratch) poi.Semantics {
	var id int
	id, sc.ids = index.ClosestWithin(r.idx, r.locs, p, r.radius, sc.ids)
	if id < 0 {
		return 0
	}
	return r.pois[id].Semantics()
}
