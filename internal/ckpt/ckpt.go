// Package ckpt persists the pipeline's expensive shared artifacts —
// the City Semantic Diagram and the annotated trajectory databases —
// so an interrupted run can resume past its completed stages instead
// of recomputing them. Every write is atomic (temp file + fsync +
// rename), so a checkpoint directory never holds a half-written
// artifact; a checkpoint that fails to load (truncated, bit-flipped,
// wrong format) is treated as absent, removed, and counted, never
// crashed on. Because the pipeline is deterministic for any worker
// count, a resumed run produces byte-identical output to an
// uninterrupted one.
package ckpt

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"csdm/internal/obs"
)

// The checkpoint file names inside a manager's directory. The diagram
// uses the csd framed format (magic + length + CRC), so it is also a
// valid -load-diagram file; the databases are the semantic-trajectory
// JSON exchange format. Stage declarations (internal/core) reference
// these, so the artifact→file mapping lives here and nowhere else.
const (
	// DiagramFile is the diagram checkpoint's filename.
	DiagramFile = "diagram.csdf"
)

// DBFile names a database checkpoint ("db-csd.json", "db-roi.json").
func DBFile(artifact string) string { return artifact + ".json" }

// WriteAtomic writes a file through a same-directory temp file, fsyncs
// it, and renames it into place, so a crash mid-write leaves either
// the old file or nothing — never a torn one. The directory is synced
// after the rename so the new name itself survives a crash. The file
// gets the mode os.Create would give it: 0666 under the process umask.
//
// A path that names an existing non-regular file — a device such as
// /dev/null, a FIFO, a socket — is written in place instead: renaming
// over it would replace the device with a regular file, and there is
// no torn file to protect against.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	if fi, serr := os.Stat(path); serr == nil && !fi.Mode().IsRegular() {
		return writeInPlace(path, write)
	}
	dir := filepath.Dir(path)
	tmp, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("ckpt: create temp for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: install %s: %w", path, err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeInPlace is WriteAtomic's path for a non-regular target: open it
// for writing, without creating or truncating it, and write.
func writeInPlace(path string, write func(io.Writer) error) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("ckpt: open %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("ckpt: close %s: %w", path, cerr)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	return nil
}

// createTemp opens a new temp file <path>.tmp-<random> beside path the
// way os.Create opens a file, with mode 0666 and the kernel applying
// the umask; os.CreateTemp would make it 0600, and the rename would
// install an owner-only file that a server under another user cannot
// read.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp-" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if os.IsExist(err) && try < 10000 {
			continue
		}
		return f, err
	}
}

// Manager owns one checkpoint directory. A nil Manager is valid and
// means "checkpointing off": every Load reports absent and every Save
// is a no-op, so call sites need no conditionals.
type Manager struct {
	dir string
	tr  *obs.Trace
}

// New opens (creating if needed) a checkpoint directory. The trace
// (nil-safe) receives ckpt.resume.<stage>, ckpt.saved.<stage> and
// ckpt.corrupt.<stage> counters, which is how tests — and operators —
// verify which stages a run actually skipped.
func New(dir string, tr *obs.Trace) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create checkpoint dir: %w", err)
	}
	return &Manager{dir: dir, tr: tr}, nil
}

// Dir returns the checkpoint directory ("" on a nil manager).
func (m *Manager) Dir() string {
	if m == nil {
		return ""
	}
	return m.dir
}

// Load opens the artifact's file and decodes it with read, reporting
// whether a valid checkpoint was found. A missing file is a plain "not
// checkpointed". A file that read rejects is corrupt: it is counted,
// removed so the rebuilt artifact can replace it, and reported as
// absent — resume degrades to recompute, never to a crash. Load and
// Save are the stage.Store implementation, so a *Manager (nil included)
// plugs straight into the stage engine's checkpoint middleware.
func (m *Manager) Load(stage, file string, read func(io.Reader) error) bool {
	if m == nil {
		return false
	}
	f, err := os.Open(filepath.Join(m.dir, file))
	if err != nil {
		return false
	}
	err = read(f)
	f.Close()
	if err != nil {
		m.tr.Add("ckpt.corrupt."+stage, 1)
		os.Remove(filepath.Join(m.dir, file))
		return false
	}
	m.tr.Add("ckpt.resume."+stage, 1)
	return true
}

// Save atomically writes the artifact's file.
func (m *Manager) Save(stage, file string, write func(io.Writer) error) error {
	if m == nil {
		return nil
	}
	if err := WriteAtomic(filepath.Join(m.dir, file), write); err != nil {
		return err
	}
	m.tr.Add("ckpt.saved."+stage, 1)
	return nil
}
