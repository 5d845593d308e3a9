// Package seqpattern implements PrefixSpan (Pei et al., ICDE 2001), the
// sequential-pattern miner Pervasive Miner and both baselines use to
// detect coarse semantic patterns: frequent subsequences of semantic
// properties across the semantic-trajectory database (§4.3).
//
// Items are opaque uint16 values; csdm feeds poi.Semantics bitsets.
package seqpattern

import (
	"context"
	"sort"

	"csdm/internal/exec"
)

// Item is one element of a sequence (csdm uses poi.Semantics values).
type Item = uint16

// Sequence is an ordered list of items.
type Sequence []Item

// Pattern is a frequent sequential pattern.
type Pattern struct {
	// Items is the pattern's item sequence.
	Items []Item
	// SeqIDs lists the indices of supporting sequences, ascending.
	SeqIDs []int
	// Embeddings[i] holds, for supporting sequence SeqIDs[i], the
	// positions of the leftmost embedding of Items into it. Algorithm 4
	// reads Pt^k(ST) — the stay point matched to pattern position k —
	// from these.
	Embeddings [][]int
}

// Support returns the number of supporting sequences.
func (p Pattern) Support() int { return len(p.SeqIDs) }

// Config bounds the PrefixSpan search.
type Config struct {
	// MinSupport is the minimum number of supporting sequences; the
	// paper's σ.
	MinSupport int
	// MinLen and MaxLen bound the emitted pattern length. Patterns
	// shorter than MinLen are not emitted (but still extended); the
	// search never extends past MaxLen.
	MinLen int
	MaxLen int
}

// DefaultConfig mines patterns of 2–5 stays with the paper's σ = 50.
func DefaultConfig() Config { return Config{MinSupport: 50, MinLen: 2, MaxLen: 5} }

// projection is a pseudo-projected suffix: sequence seq starting at pos.
type projection struct {
	seq int
	pos int
}

// Mine runs PrefixSpan over db and returns every frequent pattern within
// the configured length bounds, ordered by descending support then by
// items. Support is counted per sequence (multiple occurrences in one
// sequence count once). The search tree is partitioned by first item
// and the per-item subtrees are mined on opt's worker pool. Each
// subtree is an independent DFS over its own projected database, and
// the final ordering (support descending, then items) is a total order
// over the unique pattern set, so the result is identical — element
// for element — for any worker budget; a budget of one reproduces the
// sequential DFS exactly. A canceled ctx stops the search between
// subtrees and returns ctx.Err().
func Mine(ctx context.Context, db []Sequence, cfg Config, opt exec.Options) ([]Pattern, error) {
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	if cfg.MaxLen < 1 {
		return nil, nil
	}
	projs := make([]projection, 0, len(db))
	for i := range db {
		if len(db[i]) > 0 {
			projs = append(projs, projection{seq: i, pos: 0})
		}
	}
	// Level-1 frequency count, identical to the per-node count inside
	// mine: the frequent first items become the parallel work units.
	counts := make(map[Item]int)
	for _, pr := range projs {
		seen := make(map[Item]bool)
		for _, it := range db[pr.seq][pr.pos:] {
			if !seen[it] {
				seen[it] = true
				counts[it]++
			}
		}
	}
	items := make([]Item, 0, len(counts))
	for it, c := range counts {
		if c >= cfg.MinSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })

	// Per-slot scratch holds the first-level projected database; it is
	// only read during the subtree's DFS (emit copies IDs out, deeper
	// levels project into their own slices), so reusing it across items
	// on the same slot is safe and keeps the steady state at one
	// projection buffer per worker.
	results := make([][]Pattern, len(items))
	scratch := make([][]projection, exec.Slots(opt.Workers, len(items)))
	err := exec.ParallelForSlots(ctx, opt.Workers, len(items), func(slot, i int) error {
		it := items[i]
		buf := scratch[slot][:0]
		for _, pr := range projs {
			s := db[pr.seq]
			for k := pr.pos; k < len(s); k++ {
				if s[k] == it {
					buf = append(buf, projection{seq: pr.seq, pos: k + 1})
					break
				}
			}
		}
		scratch[slot] = buf
		prefix := []Item{it}
		var sub []Pattern
		if len(prefix) >= cfg.MinLen {
			sub = append(sub, emit(db, prefix, buf))
		}
		if len(prefix) < cfg.MaxLen {
			mine(db, cfg, prefix, buf, &sub)
		}
		results[i] = sub
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []Pattern
	for _, sub := range results {
		out = append(out, sub...)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].SeqIDs) != len(out[b].SeqIDs) {
			return len(out[a].SeqIDs) > len(out[b].SeqIDs)
		}
		return lessItems(out[a].Items, out[b].Items)
	})
	return out, nil
}

func lessItems(a, b []Item) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mine grows prefix by every locally frequent item and recurses on the
// projected database.
func mine(db []Sequence, cfg Config, prefix []Item, projs []projection, out *[]Pattern) {
	// Count, per item, the number of distinct sequences whose projected
	// suffix contains it.
	counts := make(map[Item]int)
	for _, pr := range projs {
		seen := make(map[Item]bool)
		for _, it := range db[pr.seq][pr.pos:] {
			if !seen[it] {
				seen[it] = true
				counts[it]++
			}
		}
	}
	items := make([]Item, 0, len(counts))
	for it, c := range counts {
		if c >= cfg.MinSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })

	for _, it := range items {
		newPrefix := append(append([]Item(nil), prefix...), it)
		// Project: earliest occurrence of it in each suffix.
		var newProjs []projection
		for _, pr := range projs {
			s := db[pr.seq]
			for k := pr.pos; k < len(s); k++ {
				if s[k] == it {
					newProjs = append(newProjs, projection{seq: pr.seq, pos: k + 1})
					break
				}
			}
		}
		if len(newPrefix) >= cfg.MinLen {
			*out = append(*out, emit(db, newPrefix, newProjs))
		}
		if len(newPrefix) < cfg.MaxLen {
			mine(db, cfg, newPrefix, newProjs, out)
		}
	}
}

// emit materializes a pattern: supporting sequence IDs and the leftmost
// embedding of the pattern into each.
func emit(db []Sequence, items []Item, projs []projection) Pattern {
	p := Pattern{Items: items}
	for _, pr := range projs {
		emb := leftmostEmbedding(db[pr.seq], items)
		if emb == nil {
			continue // cannot happen for a valid projection; guard anyway
		}
		p.SeqIDs = append(p.SeqIDs, pr.seq)
		p.Embeddings = append(p.Embeddings, emb)
	}
	return p
}

// leftmostEmbedding returns the positions of the leftmost subsequence
// embedding of items into seq, or nil if none exists.
func leftmostEmbedding(seq Sequence, items []Item) []int {
	emb := make([]int, 0, len(items))
	next := 0
	for _, it := range items {
		found := -1
		for k := next; k < len(seq); k++ {
			if seq[k] == it {
				found = k
				break
			}
		}
		if found < 0 {
			return nil
		}
		emb = append(emb, found)
		next = found + 1
	}
	return emb
}

// IsSubsequence reports whether pattern embeds into seq as a
// subsequence. Exported for tests and for the baselines' verification
// passes.
func IsSubsequence(seq Sequence, pattern []Item) bool {
	return leftmostEmbedding(seq, pattern) != nil
}
