package pattern

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// refCandidates is candidates without the semantic mask, as it was
// before the mask: every trajectory with stays within ε_t of both
// endpoints of the target, from the full index, in the order of the
// last endpoint's range query.
func refCandidates(cc *closureComputer, target trajectory.SemanticTrajectory, sc *closureScratch) []int {
	if target.Len() == 0 {
		return nil
	}
	first := target.Stays[0].P
	last := target.Stays[target.Len()-1].P
	nearFirst := sc.near.stamp(len(cc.db))
	emitted := sc.near.stamp(len(cc.db))
	mark := sc.near.at
	sc.ids = cc.stayIdx.WithinAppend(first, cc.params.MaxDist, sc.ids[:0])
	for _, si := range sc.ids {
		mark[cc.stayTraj[si]] = nearFirst
	}
	out := sc.cand[:0]
	sc.ids = cc.stayIdx.WithinAppend(last, cc.params.MaxDist, sc.ids[:0])
	for _, si := range sc.ids {
		ti := cc.stayTraj[si]
		if mark[ti] == nearFirst {
			mark[ti] = emitted
			out = append(out, ti)
		}
	}
	sc.cand = out
	return out
}

// refSupportGroups is supportGroups over refCandidates, as it was
// before the mask: the reference the masked closure must reproduce.
func refSupportGroups(cc *closureComputer, rep []trajectory.StayPoint, sc *closureScratch) (int, [][]trajectory.StayPoint) {
	m := len(rep)
	groups := make([][]trajectory.StayPoint, m)
	query := trajectory.SemanticTrajectory{Stays: rep}

	inClosure := sc.found.stamp(len(cc.db))
	found := sc.found.at
	support := 0
	clear(sc.tried)
	tried := sc.tried
	tried[cc.key(query, sc)] = true
	frontier := append(sc.frontier[:0], query)
	next := sc.next[:0]

	if cap(sc.match) < m {
		sc.match = make([]int, m)
	}
	match := sc.match[:m]

	for len(frontier) > 0 {
		next = next[:0]
		for _, target := range frontier {
			if !cc.params.Admits(target) {
				continue
			}
			for _, ti := range refCandidates(cc, target, sc) {
				if found[ti] == inClosure || !cc.params.Match(cc.db[ti], target, match) {
					continue
				}
				found[ti] = inClosure
				support++
				cp := make([]trajectory.StayPoint, m)
				for j, k := range match {
					cp[j] = cc.db[ti].Stays[k]
					groups[j] = append(groups[j], cp[j])
				}
				cpTraj := trajectory.SemanticTrajectory{Stays: cp}
				if k := cc.key(cpTraj, sc); !tried[k] {
					tried[k] = true
					next = append(next, cpTraj)
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	for j, sp := range rep {
		present := false
		for _, g := range groups[j] {
			if g == sp {
				present = true
				break
			}
		}
		if !present {
			groups[j] = append(groups[j], sp)
		}
	}
	return support, groups
}

// TestClosureMaskMatchesUnmaskedReference runs finalize at workers 1,
// 2 and 4 on every index backend over a workload whose decoys pass the
// spatial prefilter but fail the semantic mask, and requires every
// pattern's Support and Groups to be DeepEqual to the unmasked
// reference closure's.
func TestClosureMaskMatchesUnmaskedReference(t *testing.T) {
	db, ps := closureWorkload(rand.New(rand.NewSource(12)), 30, 20, 2000, 60)
	params := testParams()
	params.EpsT = 100
	want := dedupeMaximal(append([]Pattern(nil), ps...), params.EpsT)
	for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
		cc := newClosureComputer(db, params, kind)
		sc := newClosureScratch()
		decoys, chained := 0, false
		for i := range want {
			want[i].Support, want[i].Groups = refSupportGroups(cc, want[i].Stays, sc)
			chained = chained || want[i].Support > 1
			sems := make([]poi.Semantics, len(want[i].Stays))
			for j, sp := range want[i].Stays {
				sems[j] = sp.S
			}
			for _, ti := range refCandidates(cc, trajectory.SemanticTrajectory{Stays: want[i].Stays}, sc) {
				if !carries(db[ti].Stays, sems) {
					decoys++
				}
			}
		}
		if !chained || decoys < len(want) {
			t.Fatalf("%s: workload too easy: chained %v, %d masked decoys among %d patterns' first candidates",
				kind, chained, decoys, len(want))
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := finalize(context.Background(), db, append([]Pattern(nil), ps...), params, exec.Options{Workers: workers, Index: kind})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, workers %d: %d patterns, want %d", kind, workers, len(got), len(want))
			}
			for i := range want {
				name := fmt.Sprintf("%s, workers %d, pattern %d", kind, workers, i)
				if got[i].Support != want[i].Support {
					t.Fatalf("%s: support %d, reference %d", name, got[i].Support, want[i].Support)
				}
				if !reflect.DeepEqual(got[i].Groups, want[i].Groups) {
					t.Fatalf("%s: groups differ from the reference", name)
				}
			}
		}
	}
}
