package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"csdm/internal/core"
	"csdm/internal/metrics"
	"csdm/internal/pattern"
)

// SweepPoint is one (approach, parameter value) measurement of the four
// §5 metrics.
type SweepPoint struct {
	Approach string
	Value    string
	Summary  metrics.Summary
}

// SweepResult is the full grid of one parameter sweep (Figures 11–13).
type SweepResult struct {
	Parameter string
	Points    []SweepPoint
}

// sweep runs all six approaches for each parameter setting produced by
// vary. One failed approach fails the whole sweep.
func (e *Env) sweep(parameter string, n int, vary func(i int, p *pattern.Params) string) (SweepResult, error) {
	r := SweepResult{Parameter: parameter}
	for i := 0; i < n; i++ {
		params := MiningParams()
		label := vary(i, &params)
		for _, a := range core.Approaches() {
			ps, err := e.Pipeline.MineCtx(context.Background(), a, params)
			if err != nil {
				return SweepResult{}, fmt.Errorf("%s at %s %s: %w", a, parameter, label, err)
			}
			r.Points = append(r.Points, SweepPoint{
				Approach: a.String(),
				Value:    label,
				Summary:  metrics.Summarize(ps),
			})
		}
	}
	return r, nil
}

// Fig11 sweeps the support threshold σ.
func (e *Env) Fig11() (SweepResult, error) {
	vals := sigmaSweep()
	return e.sweep("support σ", len(vals), func(i int, p *pattern.Params) string {
		p.Sigma = vals[i]
		return fmt.Sprintf("%d", vals[i])
	})
}

// Fig12 sweeps the density threshold ρ.
func (e *Env) Fig12() (SweepResult, error) {
	vals := rhoSweep()
	return e.sweep("density ρ", len(vals), func(i int, p *pattern.Params) string {
		p.Rho = vals[i]
		return fmt.Sprintf("%.3f", vals[i])
	})
}

// Fig13 sweeps the temporal constraint δ_t.
func (e *Env) Fig13() (SweepResult, error) {
	vals := deltaSweep()
	return e.sweep("temporal δt", len(vals), func(i int, p *pattern.Params) string {
		p.DeltaT = vals[i]
		return fmt.Sprintf("%dmin", int(vals[i]/time.Minute))
	})
}

// RenderSweep writes one sweep as four metric tables (the four subplots
// of Figures 11–13).
func RenderSweep(w io.Writer, figure string, r SweepResult) {
	header(w, fmt.Sprintf("%s — sweep of %s", figure, r.Parameter))
	byApproach := make(map[string][]SweepPoint)
	var values []string
	seen := make(map[string]bool)
	for _, p := range r.Points {
		byApproach[p.Approach] = append(byApproach[p.Approach], p)
		if !seen[p.Value] {
			seen[p.Value] = true
			values = append(values, p.Value)
		}
	}
	metricsOf := []struct {
		name string
		get  func(metrics.Summary) string
	}{
		{"#patterns", func(s metrics.Summary) string { return fmt.Sprintf("%8d", s.NumPatterns) }},
		{"coverage", func(s metrics.Summary) string { return fmt.Sprintf("%8d", s.Coverage) }},
		{"avg spatial sparsity (m)", func(s metrics.Summary) string { return fmt.Sprintf("%8.1f", s.MeanSparsity) }},
		{"avg semantic consistency", func(s metrics.Summary) string { return fmt.Sprintf("%8.3f", s.MeanConsistency) }},
	}
	for _, m := range metricsOf {
		fmt.Fprintf(w, "(%s)\n%-13s", m.name, r.Parameter)
		for _, v := range values {
			fmt.Fprintf(w, "%9s", v)
		}
		fmt.Fprintln(w)
		for _, a := range core.Approaches() {
			fmt.Fprintf(w, "%-13s", a.String())
			for _, p := range byApproach[a.String()] {
				fmt.Fprintf(w, " %s", m.get(p.Summary))
			}
			fmt.Fprintln(w)
		}
	}
}
