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

// popularity is the build's popularity stage on its own: every POI's
// sum starts at zero and folds in all the stays, through a popIndex
// built for the call.
func popularity(ctx context.Context, pois []poi.POI, stays []geo.Point, kernel geo.GaussianKernel, opt exec.Options) ([]float64, error) {
	pop := make([]float64, len(pois))
	if err := FoldPopularity(ctx, opt, kernel, poi.Locations(pois), geo.Pack(stays), pop, nil); err != nil {
		return nil, err
	}
	return pop, nil
}

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

// naiveFold is Equations (2)–(3) written out with no index and no
// packed store: for every location and every stay in ascending order,
// geo.Haversine decides R3σ membership and WeightDist adds the term.
func naiveFold(kernel geo.GaussianKernel, locs, stays []geo.Point, pop []float64, touched []bool) {
	for i, l := range locs {
		for _, s := range stays {
			if d := geo.Haversine(l, s); d <= kernel.Radius() {
				pop[i] += kernel.WeightDist(d)
				touched[i] = true
			}
		}
	}
}

// TestFoldPopularityMatchesNaive is the oracle for the popularity fold:
// at one, two and three workers, folding the whole stay set at once
// through FoldPopularity, and folding a seed and then 85-stay batches
// through one retained popIndex as the Maintainer does, must both give
// the brute-force sums and touched sets bit for bit, after every batch.
func TestFoldPopularityMatchesNaive(t *testing.T) {
	stays, city := maintWorkload(t)
	kernel := newKernelFor(DefaultParams())
	locs := poi.Locations(city.POIs)
	want := make([]float64, len(locs))
	wantTouched := make([]bool, len(locs))
	naiveFold(kernel, locs, stays, want, wantTouched)

	const batchStays = 85
	seedLen := len(stays) / 2
	type step struct {
		pop     []float64
		touched []bool
	}
	var steps []step // the oracle after the seed and after each batch
	running := make([]float64, len(locs))
	for lo := 0; lo < len(stays); {
		hi := min(lo+batchStays, len(stays))
		if lo == 0 {
			hi = seedLen
		}
		touched := make([]bool, len(locs))
		naiveFold(kernel, locs, stays[lo:hi], running, touched)
		steps = append(steps, step{append([]float64(nil), running...), touched})
		lo = hi
	}
	if len(steps) < 3 {
		t.Fatalf("fixture has %d stays, too few for a seed and two batches", len(stays))
	}

	requireSame := func(t *testing.T, what string, pop, wantPop []float64, touched, wantT []bool) {
		t.Helper()
		for i := range locs {
			if math.Float64bits(pop[i]) != math.Float64bits(wantPop[i]) {
				t.Fatalf("%s: pop[%d] = %v, naive %v", what, i, pop[i], wantPop[i])
			}
			if touched[i] != wantT[i] {
				t.Fatalf("%s: touched[%d] = %v, naive %v", what, i, touched[i], wantT[i])
			}
		}
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			pop := make([]float64, len(locs))
			touched := make([]bool, len(locs))
			if err := FoldPopularity(ctx, exec.Options{Workers: workers}, kernel, locs, geo.Pack(stays), pop, touched); err != nil {
				t.Fatal(err)
			}
			requireSame(t, "whole set", pop, want, touched, wantTouched)

			pix := newPopIndex(kernel, locs)
			pop = make([]float64, len(locs))
			for lo, k := 0, 0; lo < len(stays); k++ {
				hi := min(lo+batchStays, len(stays))
				if lo == 0 {
					hi = seedLen
				}
				touched := make([]bool, len(locs))
				if err := pix.fold(ctx, workers, geo.Pack(stays[lo:hi]), pop, touched); err != nil {
					t.Fatal(err)
				}
				requireSame(t, fmt.Sprintf("after fold %d (stays %d..%d)", k, lo, hi), pop, steps[k].pop, touched, steps[k].touched)
				lo = hi
			}
		})
	}
}
