package csd

import (
	"context"
	"fmt"
	"math"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
)

// TestFoldPopularity pins FoldPopularity's contract on every index
// backend at one and four workers: folding a prefix of the stays and
// then the suffix equals folding them all, bit for bit; folding over a
// subset of the locations equals the matching entries of the full
// fold; and touched marks exactly the locations with a folded stay
// within R3σ, by brute-force Haversine.
func TestFoldPopularity(t *testing.T) {
	stays, city := maintWorkload(t)
	kernel := newKernelFor(DefaultParams())
	locs := poi.Locations(city.POIs)
	cut := len(stays) * 2 / 3
	prefix, suffix := stays[:cut], stays[cut:]

	// inRange is the brute-force touched set of a stay sequence.
	inRange := func(pts []geo.Point) []bool {
		out := make([]bool, len(locs))
		for i, l := range locs {
			for _, p := range pts {
				if geo.Haversine(l, p) <= kernel.Radius() {
					out[i] = true
					break
				}
			}
		}
		return out
	}
	wantAll, wantSuffix := inRange(stays), inRange(suffix)
	var hit, miss int
	for _, w := range wantSuffix {
		if w {
			hit++
		} else {
			miss++
		}
	}
	if hit == 0 || miss == 0 {
		t.Fatalf("fixture touches %d and misses %d POIs with the suffix; want both non-zero", hit, miss)
	}

	var sub []int
	for i := range locs {
		if i%3 == 1 {
			sub = append(sub, i)
		}
	}
	subLocs := make([]geo.Point, len(sub))
	for k, i := range sub {
		subLocs[k] = locs[i]
	}

	var ref []float64
	for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", kind, workers), func(t *testing.T) {
				ctx := context.Background()
				opt := exec.Options{Workers: workers, Index: kind}
				fold := func(ls, pts []geo.Point, pop []float64, touched []bool) {
					t.Helper()
					if err := FoldPopularity(ctx, opt, kernel, ls, geo.Pack(pts), pop, touched); err != nil {
						t.Fatal(err)
					}
				}

				full := make([]float64, len(locs))
				touched := make([]bool, len(locs))
				fold(locs, stays, full, touched)
				for i := range locs {
					if touched[i] != wantAll[i] {
						t.Fatalf("full fold: touched[%d] = %v, brute force says %v", i, touched[i], wantAll[i])
					}
					if touched[i] != (full[i] != 0) {
						t.Fatalf("full fold: touched[%d] = %v with pop %v", i, touched[i], full[i])
					}
				}
				if ref == nil {
					ref = full
				}

				split := make([]float64, len(locs))
				fold(locs, prefix, split, nil)
				touched = make([]bool, len(locs))
				fold(locs, suffix, split, touched)

				part := make([]float64, len(sub))
				fold(subLocs, stays, part, nil)

				for i := range locs {
					if math.Float64bits(full[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("pop[%d] = %v, want %v as on the grid at one worker", i, full[i], ref[i])
					}
					if math.Float64bits(split[i]) != math.Float64bits(full[i]) {
						t.Fatalf("prefix+suffix pop[%d] = %v, full fold %v", i, split[i], full[i])
					}
					if touched[i] != wantSuffix[i] {
						t.Fatalf("suffix fold: touched[%d] = %v, brute force says %v", i, touched[i], wantSuffix[i])
					}
				}
				for k, i := range sub {
					if math.Float64bits(part[k]) != math.Float64bits(full[i]) {
						t.Fatalf("subset pop[%d] (POI %d) = %v, full fold %v", k, i, part[k], full[i])
					}
				}
			})
		}
	}
}
