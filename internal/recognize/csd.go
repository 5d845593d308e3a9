package recognize

import (
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/poi"
)

// CSDRecognizer implements Algorithm 3: a range search collects the
// diagram's member POIs within R3σ of the stay point; each POI votes for
// its fine-grained semantic unit with weight pop(p^I)·‖p^I, sp‖; the
// highest-voted unit wins and the stay point receives the union of the
// semantic properties of that unit's in-range POIs.
//
// Voting per unit — rather than picking the single most likely POI —
// is what makes recognition robust to GPS noise near unit boundaries
// (the river example of §4.2).
type CSDRecognizer struct {
	diagram *csd.Diagram
}

// NewCSDRecognizer wraps a built diagram.
func NewCSDRecognizer(d *csd.Diagram) *CSDRecognizer {
	return &CSDRecognizer{diagram: d}
}

// Name implements Recognizer.
func (r *CSDRecognizer) Name() string { return "CSD" }

// RecognizeBuf implements Recognizer (Algorithm 3 lines 5–11). The
// per-unit vote tallies live in parallel slices scanned linearly — a
// stay point sees a handful of units at most, so the scan beats a map
// and allocates nothing. The winner rule (highest vote, lowest unit ID
// on ties) matches the map formulation exactly: vote sums accumulate in
// range order either way. The range order is the index's, not
// ascending: the per-unit float sums depend on it. Each kernel weight
// reads the member's latitude cosine from the diagram's packed member
// column and the stay's once per call.
func (r *CSDRecognizer) RecognizeBuf(p geo.Point, sc *Scratch) poi.Semantics {
	d := r.diagram
	kernel := d.Kernel()
	sc.ids = d.MemberSlotsWithinAppend(p, kernel.Radius(), sc.ids[:0])
	if len(sc.ids) == 0 {
		return 0
	}
	mp := d.MemberPoints()
	cosP := geo.CosLat(p.Lat)
	uids, votes, tags := sc.uids[:0], sc.votes[:0], sc.tags[:0]
	for _, m := range sc.ids {
		i := d.Member(m)
		uid := d.UnitOf(i)
		w := d.Pop[i] * kernel.WeightDist(geo.HaversineCos(mp.At(m), mp.Cos[m], p, cosP))
		sem := d.POIs[i].Semantics()
		k := 0
		for ; k < len(uids); k++ {
			if uids[k] == uid {
				votes[k] += w
				tags[k] = tags[k].Union(sem)
				break
			}
		}
		if k == len(uids) {
			uids = append(uids, uid)
			votes = append(votes, w)
			tags = append(tags, sem)
		}
	}
	sc.uids, sc.votes, sc.tags = uids, votes, tags
	best := 0
	for k := 1; k < len(uids); k++ {
		if votes[k] > votes[best] || (votes[k] == votes[best] && uids[k] < uids[best]) {
			best = k
		}
	}
	return tags[best]
}
