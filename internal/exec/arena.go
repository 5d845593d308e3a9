package exec

import "sync"

// Arena is per-slot scratch memory a stage borrows for the duration of
// one parallel region: a reusable int buffer that grows to the stage's
// working-set size once and is then recycled across stage invocations
// instead of reallocated.
//
// Ownership contract: an arena checked out through ArenaPool.Acquire is
// slot-scoped — exactly one worker slot reads and writes it until the
// whole set is Released, so no synchronization is needed inside a
// parallel region. Buffers are cleared by reslicing (a[:0]), never
// reallocated unless they must grow, and an arena's contents must never
// be retained past Release: results that outlive the region must be
// copied out.
type Arena struct {
	// Ints is the reusable []int scratch (e.g. WithinAppend candidate
	// buffers). Use a.Ints[:0] and store the grown slice back.
	Ints []int
}

// ArenaPool recycles slot-scoped arenas across stage invocations. A
// stage Acquires one arena per worker slot at region start and Releases
// the whole set at region end, so a pipeline's steady state allocates
// scratch once and reuses it for every subsequent stage — including
// stages of different kinds, since the buffers are generic.
//
// Acquire hands out disjoint arena sets, which is what makes the pool
// safe under nested parallel regions: when an outer fan-out runs two
// stages concurrently, each inner region checks out its own arenas
// rather than sharing a slot-indexed global. Both methods are nil-safe,
// so code paths without a pool (unit tests, direct API calls) fall back
// to plain allocation transparently.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Acquire checks out n arenas — one per worker slot. Pooled arenas are
// reused (keeping their grown capacity); the remainder are fresh. A nil
// pool returns fresh arenas, making the pool optional at call sites.
func (p *ArenaPool) Acquire(n int) []*Arena {
	as := make([]*Arena, n)
	if p == nil {
		for i := range as {
			as[i] = &Arena{}
		}
		return as
	}
	p.mu.Lock()
	for i := range as {
		if k := len(p.free); k > 0 {
			as[i] = p.free[k-1]
			p.free[k-1] = nil
			p.free = p.free[:k-1]
		} else {
			as[i] = &Arena{}
		}
	}
	p.mu.Unlock()
	return as
}

// Release returns a checked-out arena set to the pool. The caller must
// not touch the arenas (or anything aliasing their buffers) afterwards.
// Nil-safe: with no pool the arenas are simply dropped for the GC.
func (p *ArenaPool) Release(as []*Arena) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, a := range as {
		if a != nil {
			p.free = append(p.free, a)
		}
	}
	p.mu.Unlock()
}
