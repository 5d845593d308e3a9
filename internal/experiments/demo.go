package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"csdm/internal/core"
	"csdm/internal/geo"
	"csdm/internal/metrics"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/stage"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// TransitionCount is one semantic transition with its frequency.
type TransitionCount struct {
	Transition string
	Patterns   int
	Coverage   int
}

// Fig14BucketResult describes the patterns of one weekly time bucket.
type Fig14BucketResult struct {
	Bucket      core.TimeBucket
	Journeys    int
	NumPatterns int
	Coverage    int
	Top         []TransitionCount
}

// Fig14 mines each of the six weekly time buckets separately with
// CSD-PM, as in the §6 demonstration. Mining per bucket uses a support
// threshold scaled to the bucket's journey count.
func (e *Env) Fig14(params pattern.Params) ([]Fig14BucketResult, error) {
	var out []Fig14BucketResult
	d, err := e.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		return nil, err
	}
	rec := recognize.NewCSDRecognizer(d)
	for _, b := range core.TimeBuckets() {
		js := core.FilterJourneys(e.Workload.Journeys, b)
		bucketParams := params
		// Buckets hold a fraction of the week's journeys; scale σ so the
		// per-bucket mining keeps the same relative selectivity.
		if scaled := params.Sigma * len(js) / max(len(e.Workload.Journeys), 1); scaled >= 2 {
			bucketParams.Sigma = scaled
		} else {
			bucketParams.Sigma = 2
		}
		db, err := recognize.AnnotateJourneysEnv(stage.Background(), js, trajectory.DefaultChainParams(), rec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b, err)
		}
		ps, err := pattern.NewCounterpartCluster().Extract(stage.Background(), db, bucketParams)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b, err)
		}
		res := Fig14BucketResult{
			Bucket:      b,
			Journeys:    len(js),
			NumPatterns: len(ps),
			Coverage:    metrics.Coverage(ps),
			Top:         topTransitions(ps, 5),
		}
		out = append(out, res)
	}
	return out, nil
}

// topTransitions ranks the semantic transitions of a pattern set.
func topTransitions(ps []pattern.Pattern, n int) []TransitionCount {
	agg := make(map[string]*TransitionCount)
	for _, p := range ps {
		name := ""
		for i, it := range p.Items {
			if i > 0 {
				name += " → "
			}
			name += it.String()
		}
		tc, ok := agg[name]
		if !ok {
			tc = &TransitionCount{Transition: name}
			agg[name] = tc
		}
		tc.Patterns++
		tc.Coverage += p.Support
	}
	out := make([]TransitionCount, 0, len(agg))
	for _, tc := range agg {
		out = append(out, *tc)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Coverage != out[b].Coverage {
			return out[a].Coverage > out[b].Coverage
		}
		return out[a].Transition < out[b].Transition
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// RenderFig14 writes the §6 time-bucket demonstration.
func (e *Env) RenderFig14(w io.Writer, params pattern.Params) ([]Fig14BucketResult, error) {
	res, err := e.Fig14(params)
	if err != nil {
		return nil, err
	}
	header(w, "Figure 14(a–f) — patterns per weekly time bucket (CSD-PM)")
	for _, r := range res {
		fmt.Fprintf(w, "%-18s journeys=%6d  #patterns=%4d  coverage=%6d\n",
			r.Bucket, r.Journeys, r.NumPatterns, r.Coverage)
		for _, tc := range r.Top {
			fmt.Fprintf(w, "    %-60s ×%d (coverage %d)\n", tc.Transition, tc.Patterns, tc.Coverage)
		}
	}
	fmt.Fprintln(w, "shape check: weekday buckets are denser and more regular than weekend ones;")
	fmt.Fprintln(w, "mornings are dominated by Residence → work-type transitions.")
	return res, nil
}

// Fig14gResult quantifies the airport hotspot.
type Fig14gResult struct {
	AirportShare    float64
	AirportPatterns int
	AirportCoverage int
}

// Fig14g measures how much taxi demand the airport concentrates and how
// many mined patterns point at it.
func (e *Env) Fig14g(params pattern.Params) (Fig14gResult, error) {
	// Airport flows fan out from every neighborhood; drill down with a
	// lower support threshold, as for the hospital demo.
	if params.Sigma > 12 {
		params.Sigma = 12
	}
	var r Fig14gResult
	near := 0
	for _, j := range e.Workload.Journeys {
		if geo.Haversine(j.Pickup, e.City.Airport) < 500 || geo.Haversine(j.Dropoff, e.City.Airport) < 500 {
			near++
		}
	}
	r.AirportShare = float64(near) / float64(max(len(e.Workload.Journeys), 1))
	ps, err := e.Pipeline.MineCtx(context.Background(), core.CSDPM, params)
	if err != nil {
		return Fig14gResult{}, err
	}
	for _, p := range ps {
		for _, sp := range p.Stays {
			if geo.Haversine(sp.P, e.City.Airport) < 500 {
				r.AirportPatterns++
				r.AirportCoverage += p.Support
				break
			}
		}
	}
	return r, nil
}

// RenderFig14g writes the airport demonstration.
func (e *Env) RenderFig14g(w io.Writer, params pattern.Params) (Fig14gResult, error) {
	r, err := e.Fig14g(params)
	if err != nil {
		return r, err
	}
	header(w, "Figure 14(g) — airport hotspot")
	fmt.Fprintf(w, "journeys touching the airport: %.1f%% of all records\n", r.AirportShare*100)
	fmt.Fprintf(w, "CSD-PM patterns anchored at the airport: %d (coverage %d)\n",
		r.AirportPatterns, r.AirportCoverage)
	return r, nil
}

// Fig14hResult contrasts hospital visibility in GPS patterns vs
// check-in data (the semantic-bias demonstration).
type Fig14hResult struct {
	HospitalTrips    int
	HospitalPatterns int
	HospitalCoverage int
	CheckinShareNY   float64
	CheckinShareTK   float64
}

// Fig14h measures hospital-anchored patterns and the suppression of
// medical topics in biased check-in streams.
func (e *Env) Fig14h(params pattern.Params) (Fig14hResult, error) {
	// Hospital flows fan out from many residential origins, so each
	// origin-hospital pair is thin; mine this demo at a lower support
	// threshold, as a per-venue drill-down would.
	if params.Sigma > 12 {
		params.Sigma = 12
	}
	var r Fig14hResult
	for _, j := range e.Workload.Journeys {
		if geo.Haversine(j.Dropoff, e.City.Hospital) < 400 {
			r.HospitalTrips++
		}
	}
	ps, err := e.Pipeline.MineCtx(context.Background(), core.CSDPM, params)
	if err != nil {
		return Fig14hResult{}, err
	}
	for _, p := range ps {
		for _, sp := range p.Stays {
			if geo.Haversine(sp.P, e.City.Hospital) < 400 && sp.S.Has(poi.MedicalService) {
				r.HospitalPatterns++
				r.HospitalCoverage += p.Support
				break
			}
		}
	}
	ny := e.City.SampleCheckins(e.Workload.Journeys, synth.ProfileNewYork(), e.City.Seed+101, e.Cfg.Index)
	tk := e.City.SampleCheckins(e.Workload.Journeys, synth.ProfileTokyo(), e.City.Seed+101, e.Cfg.Index)
	r.CheckinShareNY = synth.MajorShare(ny, poi.MedicalService)
	r.CheckinShareTK = synth.MajorShare(tk, poi.MedicalService)
	return r, nil
}

// RenderFig14h writes the hospital demonstration.
func (e *Env) RenderFig14h(w io.Writer, params pattern.Params) (Fig14hResult, error) {
	r, err := e.Fig14h(params)
	if err != nil {
		return r, err
	}
	header(w, "Figure 14(h) — hospital patterns invisible to check-ins")
	fmt.Fprintf(w, "taxi drop-offs at the children's hospital: %d\n", r.HospitalTrips)
	fmt.Fprintf(w, "CSD-PM medical patterns at the hospital: %d (coverage %d)\n",
		r.HospitalPatterns, r.HospitalCoverage)
	fmt.Fprintf(w, "medical share of check-ins: NY-like %.2f%%, Tokyo-like %.2f%% (suppressed)\n",
		r.CheckinShareNY*100, r.CheckinShareTK*100)
	return r, nil
}
