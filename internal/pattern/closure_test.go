package pattern

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"csdm/internal/exec"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// closureScenario builds a db with a chain of Residence→Office
// trajectories drifting 80 m per step, so trajectory 0 is reached from
// the representative only via reachable containment.
func closureScenario() ([]trajectory.SemanticTrajectory, []trajectory.StayPoint) {
	var db []trajectory.SemanticTrajectory
	for i := 0; i < 4; i++ {
		off := float64(i) * 80
		db = append(db, trajectory.SemanticTrajectory{
			ID: int64(i),
			Stays: []trajectory.StayPoint{
				{P: at(off, 0), T: t0, S: home},
				{P: at(4000+off, 0), T: t0.Add(30 * time.Minute), S: office},
			},
		})
	}
	// Unrelated trajectory: wrong semantics at the right place.
	db = append(db, trajectory.SemanticTrajectory{
		ID: 99,
		Stays: []trajectory.StayPoint{
			{P: at(10, 0), T: t0, S: shop},
			{P: at(4010, 0), T: t0.Add(30 * time.Minute), S: shop},
		},
	})
	rep := []trajectory.StayPoint{
		{P: at(0, 0), T: t0, S: home},
		{P: at(4000, 0), T: t0.Add(30 * time.Minute), S: office},
	}
	return db, rep
}

func TestClosureMatchesTrajectoryDatabase(t *testing.T) {
	db, rep := closureScenario()
	params := testParams() // EpsT 100 via normalized? testParams has no EpsT
	params.EpsT = 100
	cc := newClosureComputer(db, params, index.KindGrid)
	sup, groups := cc.supportGroups(rep, newClosureScratch())

	// Reference: the trajectory package's Definition 8 closure.
	ref := trajectory.Database(db).Closure(
		trajectory.SemanticTrajectory{Stays: rep},
		trajectory.ContainParams{MaxDist: params.EpsT, MaxGap: params.DeltaT},
	)
	if sup != len(ref) {
		t.Fatalf("closure support = %d, reference = %d", sup, len(ref))
	}
	// Chain: trajectories 0,1 directly contain (0 m, 80 m); 2 via 1;
	// 3 via 2. The shop trajectory is excluded.
	if sup != 4 {
		t.Fatalf("support = %d, want 4 (chain of drifting trajectories)", sup)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	for k, g := range groups {
		if len(g) < sup {
			t.Fatalf("group %d size %d < support %d", k, len(g), sup)
		}
		for _, sp := range g {
			if !sp.S.Contains(rep[k].S) {
				t.Fatalf("group %d member with semantics %v cannot support item %v", k, sp.S, rep[k].S)
			}
		}
	}
}

func TestClosureCandidatePrefilterFindsSubsequenceMatches(t *testing.T) {
	// A 3-stay trajectory contains the 2-stay representative by
	// skipping its middle stay; its own endpoints are far from the
	// representative's, so the prefilter must look at all stays.
	db := []trajectory.SemanticTrajectory{
		{ID: 1, Stays: []trajectory.StayPoint{
			{P: at(-5000, 0), T: t0.Add(-30 * time.Minute), S: shop},
			{P: at(10, 0), T: t0, S: home},
			{P: at(4010, 0), T: t0.Add(30 * time.Minute), S: office},
		}},
	}
	rep := []trajectory.StayPoint{
		{P: at(0, 0), T: t0, S: home},
		{P: at(4000, 0), T: t0.Add(30 * time.Minute), S: office},
	}
	params := testParams()
	params.EpsT = 100
	cc := newClosureComputer(db, params, index.KindGrid)
	sup, _ := cc.supportGroups(rep, newClosureScratch())
	if sup != 1 {
		t.Fatalf("support = %d, want 1 (subsequence match)", sup)
	}
}

func TestDedupeMaximalDropsSubsumedPattern(t *testing.T) {
	rich := Pattern{
		Items: []poi.Semantics{home.Union(shop), office},
		Stays: []trajectory.StayPoint{
			{P: at(0, 0), S: home.Union(shop)},
			{P: at(4000, 0), S: office},
		},
		Support: 30,
	}
	thin := Pattern{
		Items: []poi.Semantics{home, office},
		Stays: []trajectory.StayPoint{
			{P: at(10, 0), S: home},
			{P: at(4010, 0), S: office},
		},
		Support: 40,
	}
	out := dedupeMaximal([]Pattern{thin, rich}, 100)
	if len(out) != 1 {
		t.Fatalf("deduped = %d patterns, want 1", len(out))
	}
	if out[0].Items[0] != home.Union(shop) {
		t.Fatalf("kept the thin flavor instead of the maximal one")
	}
}

func TestDedupeMaximalKeepsDistantSameItems(t *testing.T) {
	a := Pattern{
		Items:   []poi.Semantics{home, office},
		Stays:   []trajectory.StayPoint{{P: at(0, 0), S: home}, {P: at(4000, 0), S: office}},
		Support: 30,
	}
	b := Pattern{
		Items:   []poi.Semantics{home, office},
		Stays:   []trajectory.StayPoint{{P: at(2000, 0), S: home}, {P: at(6000, 0), S: office}},
		Support: 30,
	}
	if out := dedupeMaximal([]Pattern{a, b}, 100); len(out) != 2 {
		t.Fatalf("spatially distinct patterns were merged: %d", len(out))
	}
}

func TestDedupeMaximalIdenticalItemsKeepsStrongest(t *testing.T) {
	weak := Pattern{
		Items:   []poi.Semantics{home, office},
		Stays:   []trajectory.StayPoint{{P: at(0, 0), S: home}, {P: at(4000, 0), S: office}},
		Support: 10,
	}
	strong := weak
	strong.Support = 50
	strong.Stays = []trajectory.StayPoint{{P: at(5, 0), S: home}, {P: at(4005, 0), S: office}}
	out := dedupeMaximal([]Pattern{weak, strong}, 100)
	if len(out) != 1 || out[0].Support != 50 {
		t.Fatalf("dedupe kept %d patterns, support %d; want the stronger one", len(out), out[0].Support)
	}
}

func TestDedupeMaximalDifferentLengthsUntouched(t *testing.T) {
	short := Pattern{
		Items:   []poi.Semantics{home, office},
		Stays:   []trajectory.StayPoint{{P: at(0, 0), S: home}, {P: at(4000, 0), S: office}},
		Support: 10,
	}
	long := Pattern{
		Items: []poi.Semantics{home, office, shop},
		Stays: []trajectory.StayPoint{
			{P: at(0, 0), S: home}, {P: at(4000, 0), S: office}, {P: at(8000, 0), S: shop},
		},
		Support: 10,
	}
	if out := dedupeMaximal([]Pattern{short, long}, 100); len(out) != 2 {
		t.Fatalf("different-length patterns should never subsume each other")
	}
}

func TestParamsNormalized(t *testing.T) {
	p := Params{}.normalized()
	if p.EpsT != 100 {
		t.Fatalf("normalized EpsT = %v", p.EpsT)
	}
	q := Params{EpsT: 42}.normalized()
	if q.EpsT != 42 {
		t.Fatalf("explicit EpsT overwritten: %v", q.EpsT)
	}
}

// closureWorkload builds a database of nFlows flows of perFlow
// trajectories each, with anchors scattered over a side×side square so
// that some flows overlap, and one pattern per flow whose
// representative is the flow's first trajectory. Each flow also gets
// perFlow/5 (at least one) of each of three decoys, trajectories with
// stays near both anchors that cannot carry the flow's semantics
// unless its two semantics coincide: the reverse trip, the trip with
// the wrong semantics at its destination, and a 3-stay trip that
// visits the destination before the origin. As many trips whose
// semantics are supersets of the flow's at both ends can join the
// closure.
func closureWorkload(rng *rand.Rand, nFlows, perFlow int, side, spread float64) ([]trajectory.SemanticTrajectory, []Pattern) {
	sems := []poi.Semantics{home, office, shop}
	var db []trajectory.SemanticTrajectory
	var ps []Pattern
	const gap = 30 * time.Minute
	for f := 0; f < nFlows; f++ {
		a := [2]float64{rng.Float64() * side, rng.Float64() * side}
		b := [2]float64{rng.Float64() * side, rng.Float64() * side}
		s := [2]poi.Semantics{sems[rng.Intn(len(sems))], sems[rng.Intn(len(sems))]}
		trajs := flow(rng, perFlow, a, b, spread, gap, s)
		rep := trajs[0].Stays
		ps = append(ps, Pattern{Stays: rep, Items: []poi.Semantics{rep[0].S, rep[1].S}})
		db = append(db, trajs...)

		wrong := sems[(slices.Index(sems, s[1])+1+rng.Intn(len(sems)-1))%len(sems)]
		c := [2]float64{rng.Float64() * side, rng.Float64() * side}
		for range max(perFlow/5, 1) {
			db = append(db, flow(rng, 1, b, a, spread, gap, [2]poi.Semantics{s[1], s[0]})...)
			db = append(db, flow(rng, 1, a, b, spread, gap, [2]poi.Semantics{s[0], wrong})...)
			st := flow(rng, 1, b, a, spread, gap, [2]poi.Semantics{s[1], s[0]})[0]
			st.Stays = append(st.Stays, trajectory.StayPoint{
				P: at(c[0], c[1]), T: st.Stays[1].T.Add(gap), S: wrong,
			})
			db = append(db, st)
			db = append(db, flow(rng, 1, a, b, spread, gap, [2]poi.Semantics{s[0].Union(wrong), s[1].Union(wrong)})...)
		}
	}
	rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
	return db, ps
}

func TestFinalizeScratchReuseDeterminism(t *testing.T) {
	db, ps := closureWorkload(rand.New(rand.NewSource(11)), 30, 20, 2000, 60)
	params := testParams()
	params.EpsT = 100
	run := func(workers int) []Pattern {
		t.Helper()
		got, err := finalize(context.Background(), db, append([]Pattern(nil), ps...), params, exec.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(name string, i, sup int, groups [][]trajectory.StayPoint, want Pattern) {
		t.Helper()
		if sup != want.Support {
			t.Fatalf("%s: pattern %d support %d, want %d", name, i, sup, want.Support)
		}
		if !reflect.DeepEqual(groups, want.Groups) {
			t.Fatalf("%s: pattern %d groups differ from workers 1", name, i)
		}
	}

	// Workers 1: one scratch serves every pattern in turn.
	want := run(1)
	if len(want) < 10 {
		t.Fatalf("only %d patterns survived deduplication", len(want))
	}
	chained := false
	for _, p := range want {
		chained = chained || p.Support > 1
	}
	if !chained {
		t.Fatal("no pattern has support above 1: the workload does not exercise the closure")
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d patterns, want %d", workers, len(got), len(want))
		}
		for i := range want {
			check(fmt.Sprintf("workers %d", workers), i, got[i].Support, got[i].Groups, want[i])
		}
	}

	// A fresh scratch per pattern, and one scratch whose epochs wrap
	// within the first patterns while stale marks are still set.
	cc := newClosureComputer(db, params, index.KindGrid)
	wrapping := newClosureScratch()
	wrapping.near.epoch = math.MaxUint32 - 2
	wrapping.found.epoch = math.MaxUint32 - 2
	for i, p := range want {
		sup, groups := cc.supportGroups(p.Stays, newClosureScratch())
		check("fresh scratch", i, sup, groups, p)
		sup, groups = cc.supportGroups(p.Stays, wrapping)
		check("wrapping scratch", i, sup, groups, p)
	}
	if wrapping.near.epoch >= math.MaxUint32-2 || wrapping.found.epoch >= math.MaxUint32-2 {
		t.Fatalf("epochs near=%d found=%d never wrapped", wrapping.near.epoch, wrapping.found.epoch)
	}
}

// BenchmarkClosure measures finalize alone: the containment-closure
// support and groups of about 100 patterns over 3000 trajectories, on
// one worker so a single scratch serves every pattern.
func BenchmarkClosure(b *testing.B) {
	db, ps := closureWorkload(rand.New(rand.NewSource(42)), 100, 30, 5000, 40)
	params := testParams()
	params.EpsT = 100
	work := make([]Pattern, len(ps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, ps)
		if _, err := finalize(context.Background(), db, work, params, exec.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
