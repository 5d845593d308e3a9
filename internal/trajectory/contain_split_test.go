package trajectory

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"csdm/internal/poi"
)

// backtrackPair is the TestContainsBacktracking fixture: the first
// spatial candidate for the first stay breaks δ_t to the second, so a
// match exists only through backtracking, at [1 2].
func backtrackPair() (long, short SemanticTrajectory, p ContainParams) {
	p = ContainParams{MaxDist: 100, MaxGap: 40 * time.Minute}
	long = SemanticTrajectory{ID: 1, Stays: []StayPoint{
		{P: at(0, 0), T: t0, S: office},
		{P: at(20, 0), T: t0.Add(2 * time.Hour), S: office},
		{P: at(5000, 0), T: t0.Add(2*time.Hour + 30*time.Minute), S: home},
	}}
	short = SemanticTrajectory{ID: 2, Stays: []StayPoint{
		{P: at(10, 0), T: t0.Add(2 * time.Hour), S: office},
		{P: at(5010, 0), T: t0.Add(2*time.Hour + 25*time.Minute), S: home},
	}}
	return long, short, p
}

// dirty returns a buffer of n+2 entries holding values no match can
// produce, so a Match that read stale contents would show it.
func dirty(n int) []int {
	buf := make([]int, n+2)
	for i := range buf {
		buf[i] = -1 - 3*i
	}
	return buf
}

// TestContainsIsAdmitsAndMatch checks on seeded random trajectories that
// Contains equals Admits && Match, that Match into a dirty buffer and
// into a clean one agree with Contains' indices, and that the sample
// covers queries breaking δ_t which Match alone would accept.
func TestContainsIsAdmitsAndMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := ContainParams{MaxDist: 100, MaxGap: time.Hour}
	long, short, bp := backtrackPair()
	type pair struct {
		a, b SemanticTrajectory
		p    ContainParams
	}
	pairs := []pair{{long, short, bp}, {short, long, bp}, {long, SemanticTrajectory{}, bp}}
	for trial := 0; trial < 4000; trial++ {
		pairs = append(pairs, pair{randomST(rng, 6), randomST(rng, 4), p})
	}
	var contained, rejectedByGap int
	for i, c := range pairs {
		idxs, ok := Contains(c.a, c.b, c.p)
		n := len(c.b.Stays)
		admits := c.p.Admits(c.b)
		clean := make([]int, n)
		matched := c.p.Match(c.a, c.b, clean)
		buf := dirty(n)
		if got := c.p.Match(c.a, c.b, buf); got != matched {
			t.Fatalf("pair %d: Match into a dirty buffer = %v, into a clean one %v", i, got, matched)
		}
		if ok != (admits && matched) {
			t.Fatalf("pair %d: Contains = %v, Admits = %v, Match = %v", i, ok, admits, matched)
		}
		if matched && !slices.Equal(buf[:n], clean) {
			t.Fatalf("pair %d: dirty-buffer match %v, clean %v", i, buf[:n], clean)
		}
		if ok {
			contained++
			if !slices.Equal(idxs, clean) {
				t.Fatalf("pair %d: Contains match %v, Match %v", i, idxs, clean)
			}
		}
		if matched && !admits {
			rejectedByGap++
		}
	}
	if got, _ := Contains(long, short, bp); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("backtracking fixture matched %v, want [1 2]", got)
	}
	if contained == 0 || rejectedByGap == 0 {
		t.Fatalf("sample too narrow: %d contained, %d matched but breaking δ_t", contained, rejectedByGap)
	}
}

// TestMatchDoesNotAllocate pins Match at zero allocations, on a
// backtracking success and on a failure.
func TestMatchDoesNotAllocate(t *testing.T) {
	long, short, p := backtrackPair()
	buf := make([]int, len(short.Stays))
	far := mkST(3, []poi.Semantics{office, home}, [][2]float64{{900, 0}, {9000, 0}}, 20*time.Minute)
	for _, c := range []struct {
		name string
		stp  SemanticTrajectory
		want bool
	}{{"match", short, true}, {"no match", far, false}} {
		if got := p.Match(long, c.stp, buf); got != c.want {
			t.Fatalf("%s: Match = %v", c.name, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Match(long, c.stp, buf) }); allocs != 0 {
			t.Fatalf("%s: Match made %v allocations per run, want 0", c.name, allocs)
		}
	}
}
