package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"csdm/internal/core"
	"csdm/internal/geo"
	"csdm/internal/metrics"
	"csdm/internal/pattern"
)

// Fig6Result summarizes the built City Semantic Diagram (the paper
// visualizes it as a colored unit map over Shanghai).
type Fig6Result struct {
	Units      int
	Coverage   float64
	MeanPurity float64
	MeanSize   float64
	MaxSize    int
	Map        string // ASCII raster of unit density
}

// Fig6 builds the CSD and summarizes its units.
func (e *Env) Fig6() (Fig6Result, error) {
	d, err := e.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		return Fig6Result{}, err
	}
	r := Fig6Result{
		Units:      len(d.Units),
		Coverage:   d.Coverage(),
		MeanPurity: d.MeanUnitPurity(),
	}
	total := 0
	for _, u := range d.Units {
		total += len(u.Members)
		if len(u.Members) > r.MaxSize {
			r.MaxSize = len(u.Members)
		}
	}
	if len(d.Units) > 0 {
		r.MeanSize = float64(total) / float64(len(d.Units))
	}
	var centers []geo.Point
	for _, u := range d.Units {
		centers = append(centers, u.Center)
	}
	r.Map = asciiRaster(e, centers, 60, 24)
	return r, nil
}

// RenderFig6 writes the Figure 6 reproduction.
func (e *Env) RenderFig6(w io.Writer) (Fig6Result, error) {
	r, err := e.Fig6()
	if err != nil {
		return r, err
	}
	header(w, "Figure 6 — City Semantic Diagram")
	fmt.Fprintf(w, "units=%d  POI coverage=%.1f%%  mean unit purity=%.3f  mean size=%.1f  max size=%d\n",
		r.Units, r.Coverage*100, r.MeanPurity, r.MeanSize, r.MaxSize)
	fmt.Fprintln(w, "unit-center density map (darker = more units):")
	fmt.Fprintln(w, r.Map)
	return r, nil
}

// Fig8Result summarizes the stay points (the pick-up/drop-off map).
type Fig8Result struct {
	Journeys    int
	StayPoints  int
	MeanTripMin float64
	Map         string
}

// Fig8 summarizes the workload's stay points.
func (e *Env) Fig8() Fig8Result {
	stays := core.Stays(e.Pipeline.Journeys())
	return Fig8Result{
		Journeys:    len(e.Workload.Journeys),
		StayPoints:  len(stays),
		MeanTripMin: meanTripMinutes(e),
		Map:         asciiRaster(e, stays, 60, 24),
	}
}

func meanTripMinutes(e *Env) float64 {
	var sum float64
	for _, j := range e.Workload.Journeys {
		sum += j.DropoffTime.Sub(j.PickupTime).Minutes()
	}
	if len(e.Workload.Journeys) == 0 {
		return 0
	}
	return sum / float64(len(e.Workload.Journeys))
}

// RenderFig8 writes the Figure 8 reproduction.
func (e *Env) RenderFig8(w io.Writer) Fig8Result {
	r := e.Fig8()
	header(w, "Figure 8 — taxi stay points (pick-up/drop-off)")
	fmt.Fprintf(w, "journeys=%d  stay points=%d  mean trip=%.1f min (paper: ~30 min)\n",
		r.Journeys, r.StayPoints, r.MeanTripMin)
	fmt.Fprintln(w, "stay-point density map:")
	fmt.Fprintln(w, r.Map)
	return r
}

// Fig9Result holds the spatial-sparsity frequency curves of all six
// approaches under the normal condition.
type Fig9Result struct {
	// Curves maps approach name to its 20-bin histogram over [0, 100] m.
	Curves map[string]metrics.Histogram
	// Summaries holds the legend statistics (avg ss, #patterns,
	// coverage) per approach.
	Summaries map[string]metrics.Summary
}

// mineAll mines with all six approaches, keyed by the approach's paper
// name. One failed approach fails the whole figure.
func (e *Env) mineAll(params pattern.Params) (map[string][]pattern.Pattern, error) {
	res, err := e.Pipeline.MineAllCtx(context.Background(), params)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]pattern.Pattern, len(res))
	for _, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Approach, r.Err)
		}
		out[r.Approach.String()] = r.Patterns
	}
	return out, nil
}

// Fig9 mines with all six approaches and bins pattern sparsity.
func (e *Env) Fig9(params pattern.Params) (Fig9Result, error) {
	all, err := e.mineAll(params)
	if err != nil {
		return Fig9Result{}, err
	}
	r := Fig9Result{
		Curves:    make(map[string]metrics.Histogram),
		Summaries: make(map[string]metrics.Summary),
	}
	for name, ps := range all {
		r.Curves[name] = metrics.SparsityHistogram(ps, 0, 5, 20)
		r.Summaries[name] = metrics.Summarize(ps)
	}
	return r, nil
}

// RenderFig9 writes the Figure 9 reproduction.
func (e *Env) RenderFig9(w io.Writer, params pattern.Params) (Fig9Result, error) {
	r, err := e.Fig9(params)
	if err != nil {
		return r, err
	}
	header(w, "Figure 9 — spatial-sparsity frequency distribution")
	fmt.Fprintf(w, "bins of width 5 m over [0, 100); row = approach, column = bin count\n")
	for _, a := range core.Approaches() {
		name := a.String()
		h := r.Curves[name]
		s := r.Summaries[name]
		cells := make([]string, len(h.Counts))
		for i, c := range h.Counts {
			cells[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(w, "%-13s [%s]  avg ss=%.1f m, #patterns=%d, coverage=%d\n",
			name, strings.Join(cells, " "), s.MeanSparsity, s.NumPatterns, s.Coverage)
	}
	return r, nil
}

// Fig10Result holds the semantic-consistency box plots.
type Fig10Result struct {
	Boxes map[string]metrics.BoxStats
}

// Fig10 mines with all six approaches and computes consistency boxes.
func (e *Env) Fig10(params pattern.Params) (Fig10Result, error) {
	all, err := e.mineAll(params)
	if err != nil {
		return Fig10Result{}, err
	}
	r := Fig10Result{Boxes: make(map[string]metrics.BoxStats)}
	for name, ps := range all {
		r.Boxes[name] = metrics.ConsistencyBox(ps)
	}
	return r, nil
}

// RenderFig10 writes the Figure 10 reproduction.
func (e *Env) RenderFig10(w io.Writer, params pattern.Params) (Fig10Result, error) {
	r, err := e.Fig10(params)
	if err != nil {
		return r, err
	}
	header(w, "Figure 10 — semantic-consistency box plots")
	fmt.Fprintf(w, "%-13s %7s %7s %7s %7s %7s %7s %5s\n", "approach", "min", "Q1", "median", "Q3", "max", "mean", "n")
	for _, a := range core.Approaches() {
		b := r.Boxes[a.String()]
		fmt.Fprintf(w, "%-13s %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %5d\n",
			a, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
	}
	return r, nil
}

// asciiRaster renders points as a character raster over the city extent.
func asciiRaster(e *Env, pts []geo.Point, cols, rows int) string {
	if len(pts) == 0 {
		return "(no points)"
	}
	ext := e.City.ExtentMeters
	grid := make([]int, cols*rows)
	maxCount := 0
	for _, p := range pts {
		m := e.City.Proj.ToMeters(p)
		cx := int((m.X + ext) / (2 * ext) * float64(cols))
		cy := int((ext - m.Y) / (2 * ext) * float64(rows))
		if cx < 0 || cx >= cols || cy < 0 || cy >= rows {
			continue
		}
		grid[cy*cols+cx]++
		if grid[cy*cols+cx] > maxCount {
			maxCount = grid[cy*cols+cx]
		}
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			c := grid[y*cols+x]
			if c == 0 {
				b.WriteByte(' ')
				continue
			}
			level := int(math.Ceil(float64(c) / float64(maxCount) * float64(len(shades)-1)))
			if level >= len(shades) {
				level = len(shades) - 1
			}
			b.WriteByte(shades[level])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
