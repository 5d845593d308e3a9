package pattern

import (
	"encoding/json"
	"fmt"
	"io"

	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// patternFile is the on-disk representation of a mined pattern set. The
// representative sequence and support are stored in full; the per-
// position groups are dropped — they exist for the evaluation metrics,
// not for serving, and carry the bulk of the bytes.
type patternFile struct {
	Version  int           `json:"version"`
	Patterns []patternJSON `json:"patterns"`
}

type patternJSON struct {
	Stays   []trajectory.StayPoint `json:"stays"`
	Items   []poi.Semantics        `json:"items"`
	Support int                    `json:"support"`
}

// patternFileVersion guards the persistence format.
const patternFileVersion = 1

// WriteJSON serializes a mined pattern set (csdminer mine
// -save-patterns) so a serving process can answer "patterns near a
// location" without re-mining. Groups are not persisted; a pattern
// read back has Support and the representative stay sequence only.
func WriteJSON(w io.Writer, ps []Pattern) error {
	f := patternFile{Version: patternFileVersion, Patterns: make([]patternJSON, len(ps))}
	for i, p := range ps {
		f.Patterns[i] = patternJSON{Stays: p.Stays, Items: p.Items, Support: p.Support}
	}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("pattern: encode patterns: %w", err)
	}
	return nil
}

// ReadJSON loads a pattern set written by WriteJSON, validating the
// format version, every stay coordinate and the one-item-per-stay
// invariant so a corrupt or hostile file yields an error, never a
// pattern with NaN coordinates in a serving response or one that
// indexes past its items.
func ReadJSON(r io.Reader) ([]Pattern, error) {
	var f patternFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("pattern: decode patterns: %w", err)
	}
	if f.Version != patternFileVersion {
		return nil, fmt.Errorf("pattern: unsupported pattern file version %d", f.Version)
	}
	ps := make([]Pattern, len(f.Patterns))
	for i, p := range f.Patterns {
		if len(p.Stays) == 0 {
			return nil, fmt.Errorf("pattern: pattern %d has no stays", i)
		}
		if len(p.Items) != len(p.Stays) {
			return nil, fmt.Errorf("pattern: pattern %d has %d items for %d stays", i, len(p.Items), len(p.Stays))
		}
		if p.Support < 0 {
			return nil, fmt.Errorf("pattern: pattern %d has negative support %d", i, p.Support)
		}
		for k, sp := range p.Stays {
			if err := sp.P.Check(); err != nil {
				return nil, fmt.Errorf("pattern: pattern %d stay %d: %w", i, k, err)
			}
		}
		ps[i] = Pattern{Stays: p.Stays, Items: p.Items, Support: p.Support}
	}
	return ps, nil
}
