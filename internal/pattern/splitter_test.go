package pattern

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
)

// TestRefineByModesLabelsDoNotAlias feeds refineByModes a stub
// clustering whose labels agree in their low 16 bits (1 and 65 537): the
// two clusters must stay two candidate patterns, not fold into one.
func TestRefineByModesLabelsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sts := flow(rng, 4, [2]float64{0, 0}, [2]float64{800, 0}, 10, time.Hour, [2]poi.Semantics{home, office})
	pa := coarsePattern{items: []poi.Semantics{home, office}}
	for _, st := range sts {
		pa.stays = append(pa.stays, st.Stays)
	}
	params := Params{Sigma: 2, DeltaT: 2 * time.Hour}
	stub := func(pts []geo.Point) []int { return []int{1, 1, 65537, 65537}[:len(pts)] }
	out := refineByModes(pa, params, stub, nil, "")
	if len(out) != 2 {
		t.Fatalf("got %d patterns, want 2 (one per label)", len(out))
	}
	for i, p := range out {
		if p.Support != 2 {
			t.Errorf("pattern %d: support %d, want 2", i, p.Support)
		}
	}
}

// TestAppendLabelInjective pins the group-key token: a label below
// 65 536 keeps its historical three bytes (so keys and their sort order
// are unchanged), and distinct label tuples never share a key.
func TestAppendLabelInjective(t *testing.T) {
	if got, want := appendLabel(nil, 0x012c), []byte{0x2c, 0x01, ','}; !bytes.Equal(got, want) {
		t.Fatalf("appendLabel(0x012c) = %v, want %v", got, want)
	}
	labels := []int{0, 1, 43, 44, 255, 256, 0xffff, 0x10000, 0x10001, 0x2c2c, 0x2b0001, 0x2c0001, 1 << 32, 1<<32 + 1, 1<<62 + 44}
	seen := map[string][2]int{}
	for _, a := range labels {
		for _, b := range labels {
			k := string(appendLabel(appendLabel(nil, a), b))
			if prev, dup := seen[k]; dup {
				t.Fatalf("tuples %v and %v share key %q", prev, [2]int{a, b}, k)
			}
			seen[k] = [2]int{a, b}
		}
	}
}
