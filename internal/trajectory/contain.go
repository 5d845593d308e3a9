package trajectory

import (
	"time"

	"csdm/internal/geo"
)

// ContainParams are the parameters of Definition 7: ε_t bounds the
// distance between matched stay points and δ_t bounds the time gap
// between consecutive stay points on both sides.
type ContainParams struct {
	// MaxDist ε_t: location-proximity bound in meters.
	MaxDist float64
	// MaxGap δ_t: temporal-similarity bound between consecutive stays.
	MaxGap time.Duration
}

// Contains reports whether st contains st' (Definition 7) and, when it
// does, returns the indices into st.Stays of the counterpart subsequence
// ST” (one index per stay of st', in order). Conditions: (i) matched
// stays are within ε_t, (ii) consecutive gaps in both the counterpart
// and st' are at most δ_t, (iii) each matched stay's semantics is a
// superset of the corresponding stay of st'. It is p.Admits(stp) and
// p.Match into a fresh slice.
func Contains(st, stp SemanticTrajectory, p ContainParams) ([]int, bool) {
	if !p.Admits(stp) {
		return nil, false
	}
	match := make([]int, len(stp.Stays))
	if p.Match(st, stp, match) {
		return match, true
	}
	return nil, false
}

// Admits reports condition (ii) of Definition 7 on st' alone: every gap
// between consecutive stays of stp is at most δ_t. A trajectory that
// fails it is contained in no trajectory, so a caller matching one stp
// against many trajectories checks it once.
func (p ContainParams) Admits(stp SemanticTrajectory) bool {
	for j := 0; j+1 < len(stp.Stays); j++ {
		if absDur(stp.Stays[j+1].T.Sub(stp.Stays[j].T)) > p.MaxGap {
			return false
		}
	}
	return true
}

// Match searches st for a counterpart of stp under conditions (i),
// (iii) and the counterpart half of (ii) of Definition 7, writing the
// matched indices into st.Stays to match[:len(stp.Stays)]. It does not
// check Admits and does not allocate. match must hold at least
// len(stp.Stays) entries; its prior contents are ignored, and after a
// failed match they are unspecified.
func (p ContainParams) Match(st, stp SemanticTrajectory, match []int) bool {
	m, n := len(st.Stays), len(stp.Stays)
	if n == 0 || m < n {
		return false
	}
	return matchFrom(st, stp, p, 0, 0, match[:n])
}

// matchFrom searches for a counterpart of stp.Stays[j:] within
// st.Stays[i:], backtracking so that a failed greedy choice does not
// hide a valid later one.
func matchFrom(st, stp SemanticTrajectory, p ContainParams, i, j int, match []int) bool {
	if j == len(stp.Stays) {
		return true
	}
	for k := i; k <= len(st.Stays)-(len(stp.Stays)-j); k++ {
		a, b := st.Stays[k], stp.Stays[j]
		if !a.S.Contains(b.S) {
			continue
		}
		if geo.Haversine(a.P, b.P) > p.MaxDist {
			continue
		}
		if j > 0 {
			prev := st.Stays[match[j-1]]
			if absDur(a.T.Sub(prev.T)) > p.MaxGap {
				// Counterpart stays are in trajectory order, so gaps only
				// grow as k advances; no later k can satisfy this either.
				return false
			}
		}
		match[j] = k
		if matchFrom(st, stp, p, k+1, j+1, match) {
			return true
		}
	}
	return false
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Database is a set D of semantic trajectories.
type Database []SemanticTrajectory

// Closure computes, for a query trajectory st', every database
// trajectory that contains or reachable contains st' (Definition 8) and
// its counterpart CP(ST_i, st') (Definition 9). The returned map is
// keyed by database index; each value lists the counterpart stay points
// aligned with st'.
//
// The search runs breadth-first: level 0 holds the trajectories that
// directly contain st'; at each later level, a trajectory that contains
// the *counterpart* of an already-reached trajectory reaches st'
// transitively, and its own counterpart is CP over that counterpart,
// exactly the recursive case of Definition 9.
func (d Database) Closure(stp SemanticTrajectory, p ContainParams) map[int][]StayPoint {
	found := make(map[int][]StayPoint)
	frontier := []SemanticTrajectory{stp}
	for len(frontier) > 0 {
		var next []SemanticTrajectory
		for i, st := range d {
			if _, ok := found[i]; ok {
				continue
			}
			for _, target := range frontier {
				if idxs, ok := Contains(st, target, p); ok {
					cp := make([]StayPoint, len(idxs))
					for j, k := range idxs {
						cp[j] = st.Stays[k]
					}
					found[i] = cp
					next = append(next, SemanticTrajectory{ID: st.ID, Stays: cp})
					break
				}
			}
		}
		frontier = next
	}
	return found
}

// Support returns ST.sup(D): the number of database trajectories that
// contain or reachable contain stp.
func (d Database) Support(stp SemanticTrajectory, p ContainParams) int {
	return len(d.Closure(stp, p))
}

// Groups computes Group(sp_j) for every stay point of stp
// (Definition 10): position j's group collects the j-th counterpart
// stay point of every trajectory in the closure, plus sp_j itself.
func (d Database) Groups(stp SemanticTrajectory, p ContainParams) [][]StayPoint {
	closure := d.Closure(stp, p)
	groups := make([][]StayPoint, len(stp.Stays))
	for j, sp := range stp.Stays {
		groups[j] = append(groups[j], sp)
	}
	for _, cp := range closure {
		for j, sp := range cp {
			groups[j] = append(groups[j], sp)
		}
	}
	return groups
}
