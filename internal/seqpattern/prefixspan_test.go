package seqpattern

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"csdm/internal/exec"
)

// findPattern locates a mined pattern by items.
func findPattern(ps []Pattern, items ...Item) *Pattern {
	for i := range ps {
		if reflect.DeepEqual(ps[i].Items, items) {
			return &ps[i]
		}
	}
	return nil
}

// mustMine runs Mine under a background context and fails tb on error.
func mustMine(tb testing.TB, db []Sequence, cfg Config, opt exec.Options) []Pattern {
	tb.Helper()
	ps, err := Mine(context.Background(), db, cfg, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

func TestMineTextbookExample(t *testing.T) {
	// Adapted from the PrefixSpan paper's running example, with
	// single-item elements.
	db := []Sequence{
		{1, 2, 3, 4},
		{1, 3, 4},
		{1, 2, 4},
		{2, 3},
	}
	ps := mustMine(t, db, Config{MinSupport: 3, MinLen: 1, MaxLen: 4}, exec.Options{Workers: 1})

	cases := []struct {
		items []Item
		want  int
	}{
		{[]Item{1}, 3},
		{[]Item{2}, 3},
		{[]Item{3}, 3},
		{[]Item{4}, 3},
		{[]Item{1, 4}, 3},
		{[]Item{1, 3}, 2}, // below support: must be absent
	}
	for _, c := range cases {
		p := findPattern(ps, c.items...)
		if c.want >= 3 {
			if p == nil {
				t.Errorf("pattern %v missing", c.items)
			} else if p.Support() != c.want {
				t.Errorf("pattern %v support = %d, want %d", c.items, p.Support(), c.want)
			}
		} else if p != nil {
			t.Errorf("infrequent pattern %v emitted with support %d", c.items, p.Support())
		}
	}
}

func TestMineRespectsLengthBounds(t *testing.T) {
	db := []Sequence{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	ps := mustMine(t, db, Config{MinSupport: 2, MinLen: 2, MaxLen: 2}, exec.Options{Workers: 1})
	for _, p := range ps {
		if len(p.Items) != 2 {
			t.Errorf("pattern %v violates length bounds", p.Items)
		}
	}
	if findPattern(ps, 1, 2) == nil || findPattern(ps, 2, 3) == nil || findPattern(ps, 1, 3) == nil {
		t.Error("expected all 2-item subsequences")
	}
}

func TestMineEmbeddingsAreValid(t *testing.T) {
	db := []Sequence{
		{7, 1, 7, 2, 9},
		{1, 1, 2, 2},
		{2, 1, 2},
	}
	ps := mustMine(t, db, Config{MinSupport: 2, MinLen: 2, MaxLen: 3}, exec.Options{Workers: 1})
	p := findPattern(ps, 1, 2)
	if p == nil {
		t.Fatal("pattern [1 2] missing")
	}
	if p.Support() != 3 {
		t.Fatalf("support = %d, want 3", p.Support())
	}
	for i, sid := range p.SeqIDs {
		emb := p.Embeddings[i]
		if len(emb) != 2 {
			t.Fatalf("embedding %v wrong length", emb)
		}
		seq := db[sid]
		prev := -1
		for k, pos := range emb {
			if pos <= prev || seq[pos] != p.Items[k] {
				t.Fatalf("invalid embedding %v into %v", emb, seq)
			}
			prev = pos
		}
	}
	// Leftmost embedding of [1 2] into seq 0 is positions [1 3].
	if got := p.Embeddings[0]; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("leftmost embedding = %v, want [1 3]", got)
	}
}

func TestMineSupportIsPerSequence(t *testing.T) {
	// Item 5 occurs three times in one sequence: support must be 1.
	db := []Sequence{{5, 5, 5}}
	ps := mustMine(t, db, Config{MinSupport: 1, MinLen: 1, MaxLen: 1}, exec.Options{Workers: 1})
	p := findPattern(ps, 5)
	if p == nil || p.Support() != 1 {
		t.Fatalf("per-sequence support broken: %+v", p)
	}
}

func TestMineEmptyAndDegenerate(t *testing.T) {
	if ps := mustMine(t, nil, Config{MinSupport: 50, MinLen: 2, MaxLen: 5}, exec.Options{Workers: 1}); len(ps) != 0 {
		t.Error("empty db should yield no patterns")
	}
	if ps := mustMine(t, []Sequence{{}, {}}, Config{MinSupport: 1, MinLen: 1, MaxLen: 3}, exec.Options{Workers: 1}); len(ps) != 0 {
		t.Error("empty sequences should yield no patterns")
	}
	if ps := mustMine(t, []Sequence{{1}}, Config{MinSupport: 1, MinLen: 1, MaxLen: 0}, exec.Options{Workers: 1}); len(ps) != 0 {
		t.Error("MaxLen=0 should yield no patterns")
	}
	// MinSupport below 1 is clamped to 1.
	ps := mustMine(t, []Sequence{{1}}, Config{MinSupport: 0, MinLen: 1, MaxLen: 1}, exec.Options{Workers: 1})
	if len(ps) != 1 {
		t.Errorf("clamped MinSupport mining failed: %d patterns", len(ps))
	}
}

func TestMineOrderedByDescendingSupport(t *testing.T) {
	db := []Sequence{{1, 2}, {1, 2}, {1}, {2, 1}}
	ps := mustMine(t, db, Config{MinSupport: 1, MinLen: 1, MaxLen: 2}, exec.Options{Workers: 1})
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Support() < ps[i].Support() {
			t.Fatalf("patterns not sorted by support at %d", i)
		}
	}
}

// bruteSupport counts sequences containing pattern as a subsequence.
func bruteSupport(db []Sequence, pattern []Item) int {
	n := 0
	for _, s := range db {
		if IsSubsequence(s, pattern) {
			n++
		}
	}
	return n
}

func TestMineMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSeq := 3 + rng.Intn(8)
		db := make([]Sequence, nSeq)
		for i := range db {
			l := 1 + rng.Intn(6)
			for k := 0; k < l; k++ {
				db[i] = append(db[i], Item(rng.Intn(4)))
			}
		}
		minSup := 1 + rng.Intn(3)
		ps := mustMine(t, db, Config{MinSupport: minSup, MinLen: 1, MaxLen: 4}, exec.Options{Workers: 1})
		// (a) every emitted pattern has correct support;
		seen := make(map[string]bool)
		for _, p := range ps {
			if p.Support() != bruteSupport(db, p.Items) {
				return false
			}
			if p.Support() < minSup {
				return false
			}
			key := ""
			for _, it := range p.Items {
				key += string(rune(it + 'a'))
			}
			if seen[key] {
				return false // duplicates
			}
			seen[key] = true
			// embeddings are valid subsequence matches
			for i, sid := range p.SeqIDs {
				prev := -1
				for k, pos := range p.Embeddings[i] {
					if pos <= prev || db[sid][pos] != p.Items[k] {
						return false
					}
					prev = pos
				}
			}
		}
		// (b) completeness: every frequent 1- and 2-item pattern appears.
		for a := Item(0); a < 4; a++ {
			if bruteSupport(db, []Item{a}) >= minSup && findPattern(ps, a) == nil {
				return false
			}
			for b := Item(0); b < 4; b++ {
				if bruteSupport(db, []Item{a, b}) >= minSup && findPattern(ps, a, b) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSubsequence(t *testing.T) {
	seq := Sequence{3, 1, 4, 1, 5}
	cases := []struct {
		pattern []Item
		want    bool
	}{
		{[]Item{3, 4, 5}, true},
		{[]Item{1, 1}, true},
		{[]Item{5, 3}, false},
		{[]Item{}, true},
		{[]Item{9}, false},
	}
	for _, c := range cases {
		if got := IsSubsequence(seq, c.pattern); got != c.want {
			t.Errorf("IsSubsequence(%v) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

func BenchmarkMine1000x8(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	db := make([]Sequence, 1000)
	for i := range db {
		l := 3 + rng.Intn(6)
		for k := 0; k < l; k++ {
			db[i] = append(db[i], Item(rng.Intn(15)))
		}
	}
	cfg := Config{MinSupport: 50, MinLen: 2, MaxLen: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMine(b, db, cfg, exec.Options{Workers: 1})
	}
}

// TestMineWorkerDeterminism pins the parallel-mining invariant: Mine
// must return the identical pattern list — same order, same items, same
// supporting IDs and embeddings — for any worker budget, because the
// pipeline's mined-pattern count is gated on exact equality across
// worker counts.
func TestMineWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := make([]Sequence, 400)
	for i := range db {
		db[i] = make(Sequence, 3+rng.Intn(8))
		for k := range db[i] {
			db[i][k] = Item(rng.Intn(12))
		}
	}
	cfg := Config{MinSupport: 20, MinLen: 1, MaxLen: 5}
	ref := mustMine(t, db, cfg, exec.Options{Workers: 1})
	if len(ref) == 0 {
		t.Fatal("degenerate fixture: no patterns mined")
	}
	for _, workers := range []int{2, 3, 8} {
		got := mustMine(t, db, cfg, exec.Options{Workers: workers})
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: pattern list diverged from sequential mining", workers)
		}
	}
}

// TestMineCanceledContext: a canceled context stops the search and
// surfaces ctx.Err() at any worker budget instead of an empty or
// partial pattern list.
func TestMineCanceledContext(t *testing.T) {
	db := []Sequence{{1, 2, 3}, {1, 2, 3}, {2, 3}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		ps, err := Mine(ctx, db, Config{MinSupport: 2, MinLen: 1, MaxLen: 3}, exec.Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || ps != nil {
			t.Errorf("workers=%d: Mine = %d patterns, %v; want nil, context.Canceled", workers, len(ps), err)
		}
	}
}
