package recognize

import (
	"math"
	"sync"

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
	radius  float64
	// proj and lats bound a member's true distance from its planar one
	// (geo.LatHull.Band).
	proj geo.Projection
	lats geo.LatHull
	// expIdx turns a squared true distance into a position in expTable:
	// the kernel exponent is d²/(2σ²) = expUMax·d²/R3σ² because
	// σ = R3σ/3, so the position is d²·expSteps/R3σ².
	expIdx float64
	exp    []float64
}

// NewCSDRecognizer wraps a built diagram. It allocates only the
// recognizer itself: the bound table is shared by the whole process,
// so a hot swap that wraps each new generation pays nothing for it.
func NewCSDRecognizer(d *csd.Diagram) *CSDRecognizer {
	r := d.Kernel().Radius()
	return &CSDRecognizer{
		diagram: d,
		radius:  r,
		proj:    d.MemberPoints().Proj(),
		lats:    d.MemberLatHull(),
		expIdx:  expSteps / (r * r),
		exp:     expBounds(),
	}
}

// Name implements Recognizer.
func (r *CSDRecognizer) Name() string { return "CSD" }

// The bound table: expTable[k] = exp(−k·expUMax/expSteps) for
// k ≤ expSteps, and expTable[expSteps+1] = 0. expUMax is the kernel
// exponent at the R3σ cutoff whatever the radius, so one table serves
// every kernel. Between two entries exp(−u) is bracketed by them, which
// is all the certificate needs: the table never produces a weight.
const (
	expSteps = 4096
	expUMax  = 4.5
	// certSlack is the relative margin by which the leader's lower
	// bound must beat every other unit's upper bound. It covers every
	// rounding between the bounds and the exact vote's float sums: the
	// table entries, the norm factor and the order of the additions
	// (~1e-16 each), and the ~1e-9 m by which the projected and the
	// Haversine distance can each miss, at most ~2e-10 of a weight
	// within R3σ. So a certified winner is the exact vote's winner.
	certSlack = 1e-9
)

var (
	expOnce  sync.Once
	expTable []float64
)

// expBounds returns the process-wide bound table, building it on first
// use.
func expBounds() []float64 {
	expOnce.Do(func() {
		t := make([]float64, expSteps+2)
		for k := 0; k <= expSteps; k++ {
			t[k] = math.Exp(-float64(k) * expUMax / expSteps)
		}
		expTable = t
	})
	return expTable
}

// RecognizeBuf implements Recognizer (Algorithm 3 lines 5–11). It
// first tries to certify the winner from bounds on every member's
// weight (certify); only when the bounds leave the winner open does it
// run the exact vote (exact) over the same range-query result. Either
// way the answer is the exact vote's.
func (r *CSDRecognizer) RecognizeBuf(p geo.Point, sc *Scratch) poi.Semantics {
	sc.ids = r.diagram.MemberSlotsWithinAppend(p, r.radius, sc.ids[:0])
	if len(sc.ids) == 0 {
		return 0
	}
	if s, ok := r.certify(p, sc); ok {
		return s
	}
	sc.exact++
	return r.exact(p, sc)
}

// certify is the bound pass. Each member's planar distance to p, read
// from the packed X/Y columns, brackets its true distance through the
// member hull's distortion band, and the table brackets its kernel
// weight, so each unit's vote lies in [lo, hi]; the kernel's norm
// factor is common to every unit and left out. The leader by lo wins
// outright when its lo beats every other unit's hi by certSlack, and a
// lone unit wins without any bound. ok is false — and the exact vote
// must decide — when the band is refused (polar or continent-scale
// queries), when a member lies beyond the band's reach (the k-d tree
// returns members across ±180° that the plane places 40 000 km away),
// and on zero or near-equal votes, where the exact sums and the
// lowest-unit-id tie-break decide. A negative or NaN popularity, which
// only a hand-made snapshot can carry, falls back too.
func (r *CSDRecognizer) certify(p geo.Point, sc *Scratch) (poi.Semantics, bool) {
	b, ok := r.bounds(p)
	if !ok {
		return 0, false
	}
	d := r.diagram
	mp := d.MemberPoints()
	units, sems := d.MemberColumns()
	uids, los, his, tags := sc.uids[:0], sc.votes[:0], sc.his[:0], sc.tags[:0]
	// The tallies go back into sc however the pass ends, so their grown
	// capacity is reused and no stay allocates twice.
	defer func() { sc.uids, sc.votes, sc.his, sc.tags = uids, los, his, tags }()
	for _, m := range sc.ids {
		eLo, eHi, ok := b.at(mp.X[m], mp.Y[m])
		pop := d.Pop[d.Member(m)]
		if !ok || !(pop >= 0) {
			return 0, false
		}
		uid := int(units[m])
		wLo, wHi := pop*eLo, pop*eHi
		sem := sems[m]
		k := 0
		for ; k < len(uids); k++ {
			if uids[k] == uid {
				los[k] += wLo
				his[k] += wHi
				tags[k] = tags[k].Union(sem)
				break
			}
		}
		if k == len(uids) {
			uids = append(uids, uid)
			los = append(los, wLo)
			his = append(his, wHi)
			tags = append(tags, sem)
		}
	}
	best := 0
	for k := 1; k < len(uids); k++ {
		if los[k] > los[best] {
			best = k
		}
	}
	for k := range uids {
		if k != best && !(his[k]*(1+certSlack) < los[best]) {
			return 0, false
		}
	}
	return tags[best], true
}

// bounds is the bound pass's setup for one stay: its planar position,
// the squared planar reach of a member in range, and the factors that
// turn a member's squared planar distance into the table positions of
// the ends of its true distance's interval.
type bounds struct {
	c                 geo.Meters
	reach2, near, far float64
	exp               []float64
}

// bounds sets up the bound pass for a stay at p. ok is false when the
// member hull refuses the distortion band.
func (r *CSDRecognizer) bounds(p geo.Point) (bounds, bool) {
	lo, hi, ok := r.lats.Band(r.proj.CosLat(), p.Lat, r.radius)
	if !ok {
		return bounds{}, false
	}
	reach := r.radius*hi + 1e-9
	// true ∈ [planar/hi, planar/lo], and the table position of a true
	// distance t is t²·expIdx.
	return bounds{
		c:      r.proj.ToMeters(p),
		reach2: reach * reach,
		near:   r.expIdx / (hi * hi),
		far:    r.expIdx / (lo * lo),
		exp:    r.exp,
	}, true
}

// at brackets exp(−u), u the kernel exponent of the true distance from
// the stay to a member at planar (x, y): the table entry at or below
// the nearest position bounds it above, the entry past the farthest
// position bounds it below. ok is false when the member lies beyond
// the band's reach.
func (b *bounds) at(x, y float64) (lo, hi float64, ok bool) {
	dx := x - b.c.X
	dy := y - b.c.Y
	d2 := dx*dx + dy*dy
	if !(d2 <= b.reach2) {
		return 0, 0, false
	}
	return b.exp[min(int(d2*b.far)+1, expSteps+1)], b.exp[min(int(d2*b.near), expSteps)], true
}

// exact is the vote itself, over the ids RecognizeBuf's range query
// left in sc. The per-unit vote tallies live in parallel slices scanned
// linearly — a stay point sees a handful of units at most, so the scan
// beats a map and allocates nothing. The winner rule (highest vote,
// lowest unit ID on ties) matches the map formulation exactly: vote
// sums accumulate in range order either way. The range order is the
// index's, not ascending: the per-unit float sums depend on it. Each
// kernel weight reads the member's latitude cosine from the diagram's
// packed member column and the stay's once per call.
func (r *CSDRecognizer) exact(p geo.Point, sc *Scratch) poi.Semantics {
	d := r.diagram
	kernel := d.Kernel()
	mp := d.MemberPoints()
	cosP := geo.CosLat(p.Lat)
	uids, votes, tags := sc.uids[:0], sc.votes[:0], sc.tags[:0]
	for _, m := range sc.ids {
		i := d.Member(m)
		uid := d.UnitOf(i)
		w := d.Pop[i] * kernel.WeightCos(mp.At(m), mp.Cos[m], p, cosP)
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
