package exec

import (
	"context"
	"sync"
	"testing"
)

// TestArenaPoolCheckout pins the checkout semantics: Acquire hands out
// distinct arenas, Release recycles them (with their grown capacity),
// and nil pools degrade to plain allocation.
func TestArenaPoolCheckout(t *testing.T) {
	p := NewArenaPool()
	as := p.Acquire(3)
	if len(as) != 3 {
		t.Fatalf("Acquire(3) returned %d arenas", len(as))
	}
	seen := map[*Arena]bool{}
	for _, a := range as {
		if a == nil {
			t.Fatal("Acquire returned a nil arena")
		}
		if seen[a] {
			t.Fatal("Acquire handed the same arena out twice in one set")
		}
		seen[a] = true
	}
	as[0].Ints = append(as[0].Ints[:0], 1, 2, 3)
	grown := cap(as[0].Ints)
	p.Release(as)

	reused := p.Acquire(3)
	foundGrown := false
	for _, a := range reused {
		if cap(a.Ints) == grown && grown > 0 {
			foundGrown = true
		}
	}
	if !foundGrown {
		t.Fatal("Release did not recycle the grown arena")
	}
	p.Release(reused)

	var nilPool *ArenaPool
	fresh := nilPool.Acquire(2)
	if len(fresh) != 2 || fresh[0] == nil || fresh[1] == nil {
		t.Fatalf("nil pool Acquire(2) = %v", fresh)
	}
	nilPool.Release(fresh) // must not panic
}

// TestArenaPoolParallelCheckout races many concurrent regions against
// one pool: each region checks out its own arena set, stamps every
// arena, and verifies no other region's stamp appears — the disjointness
// guarantee nested concurrent stages rely on. Run under -race in CI's
// scaling job.
func TestArenaPoolParallelCheckout(t *testing.T) {
	p := NewArenaPool()
	var wg sync.WaitGroup
	for region := 0; region < 16; region++ {
		wg.Add(1)
		go func(stamp int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				as := p.Acquire(4)
				for _, a := range as {
					a.Ints = append(a.Ints[:0], stamp)
				}
				for _, a := range as {
					if a.Ints[0] != stamp {
						t.Errorf("arena shared across concurrent regions: got %d, want %d", a.Ints[0], stamp)
						return
					}
				}
				p.Release(as)
			}
		}(region)
	}
	wg.Wait()
}

// TestArenaOptionsRoundTrip checks the Options plumbing: with a pool
// attached a parallel region's per-slot arenas come from and return to
// the pool; without one the helpers still work.
func TestArenaOptionsRoundTrip(t *testing.T) {
	opt := Options{Workers: 4, Arenas: NewArenaPool()}
	n := 64
	slots := Slots(opt.Workers, n)
	as := opt.AcquireArenas(slots)
	out := make([]int, n)
	err := ParallelForSlots(context.Background(), opt.Workers, n, func(slot, i int) error {
		buf := as[slot].Ints[:0]
		buf = append(buf, i*2)
		as[slot].Ints = buf
		out[i] = buf[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	opt.ReleaseArenas(as)
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}

	var bare Options
	fresh := bare.AcquireArenas(2)
	if len(fresh) != 2 || fresh[0] == nil {
		t.Fatal("AcquireArenas without a pool must still return usable arenas")
	}
	bare.ReleaseArenas(fresh)
}
