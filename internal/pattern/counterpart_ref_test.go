package pattern

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"csdm/internal/cluster"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// refineScan is Algorithm 4 lines 3–20 written the plain way: for each
// trajectory it scans all n trajectories for the ones still in the
// coarse pattern, then filters them position by position (cluster,
// then δ_t, then group density). It is the reference
// CounterpartCluster.refine's bucketed gathering must reproduce.
func refineScan(c *CounterpartCluster, pa coarsePattern, params Params, opt exec.Options) (out []Pattern, candidates, pruned int64) {
	m, n := len(pa.items), len(pa.stays)
	if n < params.Sigma {
		return nil, 0, 0
	}
	clusters := make([][]int, m)
	for k := range clusters {
		pts := make([]geo.Point, n)
		for i := range pa.stays {
			pts[i] = pa.stays[i][k].P
		}
		clusters[k] = cluster.Optics(pts, c.OpticsMaxEps, params.Sigma, opt).ExtractLeaves(params.Sigma).Labels
	}
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		if removed[i] {
			continue
		}
		var candidate []int
		for j := 0; j < n; j++ {
			if !removed[j] {
				candidate = append(candidate, j)
			}
		}
		valid := true
		for k := 0; k < m && valid; k++ {
			var next []int
			for _, j := range candidate {
				if ci := clusters[k][i]; ci >= 0 && clusters[k][j] == ci {
					next = append(next, j)
				}
			}
			candidate = next
			if k > 0 {
				next = nil
				for _, j := range candidate {
					gap := pa.stays[j][k].T.Sub(pa.stays[j][k-1].T)
					if gap < 0 {
						gap = -gap
					}
					if gap <= params.DeltaT {
						next = append(next, j)
					}
				}
				candidate = next
			}
			var pts []geo.Point
			for _, j := range candidate {
				pts = append(pts, pa.stays[j][k].P)
			}
			if geo.Density(pts) < params.Rho {
				for _, j := range candidate {
					removed[j] = true
				}
				valid = false
			}
		}
		for _, j := range candidate {
			removed[j] = true
		}
		candidates++
		if !valid || len(candidate) < params.Sigma {
			pruned++
			continue
		}
		support := make([][]trajectory.StayPoint, len(candidate))
		for idx, j := range candidate {
			support[idx] = pa.stays[j]
		}
		out = append(out, buildPattern(pa.items, support))
	}
	return out, candidates, pruned
}

// TestCounterpartMatchesScan compares CounterpartCluster.refine with
// refineScan on every coarse pattern of a database that reaches each
// branch of the gathering: two tight flows sharing semantics (two
// first-point clusters), a flow whose second stay breaks δ_t, a flow
// OPTICS clusters but too spread out to pass the density check,
// scattered trajectories that OPTICS labels noise, and trajectories
// that start in a cluster and end in noise. The patterns and the
// candidate and prune counts must be equal.
func TestCounterpartMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sems := [2]poi.Semantics{home, office}
	db := flow(rng, 60, [2]float64{0, 0}, [2]float64{4000, 0}, 25, 30*time.Minute, sems)
	db = append(db, flow(rng, 50, [2]float64{500, 2000}, [2]float64{4500, 2000}, 25, 30*time.Minute, sems)...)
	db = append(db, flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 25, 3*time.Hour, sems)...)
	db = append(db, flow(rng, 40, [2]float64{9000, 9000}, [2]float64{-9000, 9000}, 150, 30*time.Minute, sems)...)
	for i := 0; i < 30; i++ {
		db = append(db, flow(rng, 1, [2]float64{rng.Float64() * 2e4, rng.Float64() * 2e4}, [2]float64{rng.Float64() * 2e4, rng.Float64() * 2e4}, 10, 20*time.Minute, sems)...)
		db = append(db, flow(rng, 1, [2]float64{0, 0}, [2]float64{rng.Float64() * 2e4, rng.Float64() * 2e4}, 25, 20*time.Minute, sems)...)
	}
	rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
	params := testParams()
	opt := exec.Options{Workers: 1}
	coarse, err := minePrefixSpan(context.Background(), db, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) == 0 {
		t.Fatal("no coarse pattern")
	}
	c := NewCounterpartCluster()
	var kept, prunedAll int64
	for ci, pa := range coarse {
		tr := obs.New()
		got := c.refine(pa, params, tr, opt)
		want, candidates, pruned := refineScan(c, pa, params, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("coarse pattern %d (%d trajectories): refine gave %d patterns, the scan %d", ci, len(pa.stays), len(got), len(want))
		}
		pfx := "extract." + c.Name()
		if g, p := tr.Counter(pfx+".candidates"), tr.Counter(pfx+".pruned"); g != candidates || p != pruned {
			t.Fatalf("coarse pattern %d: candidates/pruned %d/%d, the scan %d/%d", ci, g, p, candidates, pruned)
		}
		kept += int64(len(want))
		prunedAll += pruned
	}
	if kept < 2 || prunedAll == 0 {
		t.Fatalf("database reached too few branches: %d patterns kept, %d candidate sets pruned", kept, prunedAll)
	}
}
