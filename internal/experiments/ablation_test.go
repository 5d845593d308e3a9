package experiments

// Ablations behind the paper's two design claims (DESIGN.md §7), run on
// the shared test city: unit voting makes recognition robust to GPS
// noise (§4.2), and merging curbs fragmentation (§4.1). Purification's
// effect on recognition accuracy is reported without a claimed
// direction. The measured values are recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/recognize"
)

const (
	// minVotingStability is the least fraction of jittered probes that
	// unit voting must label like the unjittered anchor; it measured
	// 0.955 on the test city (nearest-POI annotation: 0.685).
	minVotingStability = 0.95
	// maxMergedUnitRatio bounds merged/unmerged unit counts: merging
	// must at least halve the diagram (it measured 699/1 586 = 0.44).
	maxMergedUnitRatio = 0.5
)

// ablationVariant builds the test city's diagram with one CSD stage
// switched off by skip.
func ablationVariant(e *Env, skip func(*csd.Params)) *csd.Diagram {
	params := e.Cfg.CSD
	skip(&params)
	return csd.Build(e.City.POIs, core.Stays(e.Pipeline.Journeys()), params)
}

// stability is the fraction of jittered probes — a 5×2 grid at 12 m
// spacing around each of the first 20 site anchors that recognizes to
// a non-empty label — whose label matches the anchor's own.
func stability(e *Env, r recognize.Recognizer) float64 {
	var sc recognize.Scratch
	same, total := 0, 0
	for s := 0; s < 20; s++ {
		anchor := e.City.Sites[s].Center
		ref := r.RecognizeBuf(anchor, &sc)
		if ref.IsEmpty() {
			continue
		}
		m := e.City.Proj.ToMeters(anchor)
		for k := 0; k < 10; k++ {
			jit := geo.Meters{X: m.X + float64(k%5-2)*12, Y: m.Y + float64(k/5-1)*12}
			if r.RecognizeBuf(e.City.Proj.ToPoint(jit), &sc) == ref {
				same++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(same) / float64(total)
}

// accuracy is the mean Jaccard overlap between the major categories
// recognized at each site's center and the categories the site truly
// hosts, over the sites with a non-empty recognition.
func accuracy(e *Env, r recognize.Recognizer) float64 {
	var sc recognize.Scratch
	var sum float64
	n := 0
	for _, site := range e.City.Sites {
		got := r.RecognizeBuf(site.Center, &sc)
		if got.IsEmpty() {
			continue
		}
		var truth poi.Semantics
		for _, mj := range site.Majors {
			truth = truth.Add(mj)
		}
		inter, union := 0, 0
		for mj := 0; mj < poi.NumMajors; mj++ {
			in, tr := got.Has(poi.Major(mj)), truth.Has(poi.Major(mj))
			if in && tr {
				inter++
			}
			if in || tr {
				union++
			}
		}
		if union > 0 {
			sum += float64(inter) / float64(union)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestAblationVotingBeatsNearestUnderJitter: Algorithm 3's unit vote
// keeps a site anchor's label under up to 24 m of GPS jitter, where
// naive nearest-POI annotation flips with the closest venue.
func TestAblationVotingBeatsNearestUnderJitter(t *testing.T) {
	e := testSetup(t)
	d, err := e.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	voting := stability(e, recognize.NewCSDRecognizer(d))
	nearest := stability(e, recognize.NewNearestPOIRecognizer(e.City.POIs, 100, e.Cfg.Index))
	t.Logf("jitter stability: voting %.3f, nearest-POI %.3f", voting, nearest)
	if voting < minVotingStability {
		t.Errorf("voting stability %.3f below floor %.2f", voting, minVotingStability)
	}
	if voting <= nearest {
		t.Errorf("voting stability %.3f does not beat nearest-POI %.3f", voting, nearest)
	}
}

// TestAblationMergingHalvesUnits: the Eq. 6–8 merge at least halves
// the unit count of the unmerged diagram.
func TestAblationMergingHalvesUnits(t *testing.T) {
	e := testSetup(t)
	d, err := e.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	unmerged := ablationVariant(e, func(p *csd.Params) { p.SkipMerging = true })
	merged, raw := len(d.Units), len(unmerged.Units)
	t.Logf("units: merged %d, unmerged %d", merged, raw)
	if raw == 0 || float64(merged)/float64(raw) > maxMergedUnitRatio {
		t.Errorf("merged/unmerged units %d/%d above %.1f", merged, raw, maxMergedUnitRatio)
	}
}

// TestAblationPurificationAccuracy reports site-level recognition
// accuracy with and without Algorithm 2. Site-center Jaccard is a weak
// proxy for stay-level truth, so it claims no direction and checks
// only the range.
func TestAblationPurificationAccuracy(t *testing.T) {
	e := testSetup(t)
	d, err := e.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	unpurified := ablationVariant(e, func(p *csd.Params) { p.SkipPurification = true })
	on := accuracy(e, recognize.NewCSDRecognizer(d))
	off := accuracy(e, recognize.NewCSDRecognizer(unpurified))
	t.Logf("site Jaccard: purification on %.3f, off %.3f", on, off)
	for name, v := range map[string]float64{"on": on, "off": off} {
		if v < 0 || v > 1 {
			t.Errorf("purification %s: Jaccard %.3f outside [0, 1]", name, v)
		}
	}
}
