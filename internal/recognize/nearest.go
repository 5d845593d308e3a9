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
	idx    index.Index
	radius float64
}

// NewNearestPOIRecognizer indexes the POI set on the requested backend;
// radius bounds the search (the paper's R3σ is the natural choice).
// Earlier versions hardcoded the grid here, so an rtree/kdtree pipeline
// silently ran its ablation baseline on a different backend than every
// other stage.
func NewNearestPOIRecognizer(pois []poi.POI, radius float64, kind index.Kind) *NearestPOIRecognizer {
	return &NearestPOIRecognizer{
		pois:   pois,
		idx:    index.New(kind, poi.Locations(pois), radius),
		radius: radius,
	}
}

// Name implements Recognizer.
func (r *NearestPOIRecognizer) Name() string { return "NearestPOI" }

// RecognizeBuf implements Recognizer; the nearest-neighbor query keeps
// no scratch.
func (r *NearestPOIRecognizer) RecognizeBuf(p geo.Point, _ *Scratch) poi.Semantics {
	near := r.idx.Nearest(p, 1)
	if len(near) == 1 && geo.Haversine(p, r.pois[near[0]].Location) <= r.radius {
		return r.pois[near[0]].Semantics()
	}
	return 0
}
