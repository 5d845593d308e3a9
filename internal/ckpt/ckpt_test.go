package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// testDiagram builds a tiny but real diagram for roundtrip tests.
func testDiagram(t *testing.T) *csd.Diagram {
	t.Helper()
	restaurant, ok := poi.MinorByName("Chinese Restaurant")
	if !ok {
		t.Fatal("category table missing Chinese Restaurant")
	}
	var pois []poi.POI
	for i := 0; i < 12; i++ {
		pois = append(pois, poi.POI{
			ID:       int64(i + 1),
			Name:     "p",
			Location: geo.Point{Lon: 121.4 + float64(i)*1e-4, Lat: 31.2},
			Minor:    restaurant,
		})
	}
	params := csd.DefaultParams()
	params.KeepSingletons = true
	return csd.Build(pois, nil, params)
}

func testDB() []trajectory.SemanticTrajectory {
	return []trajectory.SemanticTrajectory{{
		ID:          1,
		PassengerID: 9,
		Stays: []trajectory.StayPoint{{
			P: geo.Point{Lon: 121.4, Lat: 31.2},
			T: time.Date(2019, 4, 1, 8, 0, 0, 0, time.UTC),
		}},
	}}
}

// The helpers below checkpoint the diagram and a database through
// Load/Save with the codecs the pipeline's stages use: the framed
// csd.Read/Write and the semantic-trajectory JSON exchange format.

func saveDiagram(m *Manager, d *csd.Diagram) error {
	return m.Save("diagram", DiagramFile, d.Write)
}

func loadDiagram(m *Manager) (*csd.Diagram, bool) {
	var d *csd.Diagram
	ok := m.Load("diagram", DiagramFile, func(r io.Reader) (err error) {
		d, err = csd.Read(r)
		return err
	})
	return d, ok
}

func saveDatabase(m *Manager, name string, db []trajectory.SemanticTrajectory) error {
	return m.Save(name, DBFile(name), func(w io.Writer) error {
		return trajectory.WriteSemanticJSON(w, db)
	})
}

func loadDatabase(m *Manager, name string) ([]trajectory.SemanticTrajectory, bool) {
	var db []trajectory.SemanticTrajectory
	ok := m.Load(name, DBFile(name), func(r io.Reader) (err error) {
		db, err = trajectory.ReadSemanticJSON(r)
		return err
	})
	return db, ok
}

func TestManagerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := obs.New()
	m, err := New(dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := testDiagram(t)
	db := testDB()
	if err := saveDiagram(m, d); err != nil {
		t.Fatal(err)
	}
	if err := saveDatabase(m, "db-csd", db); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("ckpt.saved.diagram"); got != 1 {
		t.Errorf("counter ckpt.saved.diagram = %d", got)
	}

	// A second manager over the same dir (a rerun) resumes both stages.
	tr2 := obs.New()
	m2, err := New(dir, tr2)
	if err != nil {
		t.Fatal(err)
	}
	d2, ok := loadDiagram(m2)
	if !ok {
		t.Fatal("diagram checkpoint not found on rerun")
	}
	var want, got bytes.Buffer
	if err := d.Write(&want); err != nil {
		t.Fatal(err)
	}
	if err := d2.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("resumed diagram serializes differently")
	}
	db2, ok := loadDatabase(m2, "db-csd")
	if !ok || !reflect.DeepEqual(db, db2) {
		t.Fatalf("resumed database mismatch (ok=%v)", ok)
	}
	if tr2.Counter("ckpt.resume.diagram") != 1 || tr2.Counter("ckpt.resume.db-csd") != 1 {
		t.Errorf("resume counters = %d/%d, want 1/1",
			tr2.Counter("ckpt.resume.diagram"), tr2.Counter("ckpt.resume.db-csd"))
	}
}

func TestManagerMissingIsAbsentNotError(t *testing.T) {
	m, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadDiagram(m); ok {
		t.Error("empty dir produced a diagram")
	}
	if _, ok := loadDatabase(m, "db-roi"); ok {
		t.Error("empty dir produced a database")
	}
}

// TestManagerCorruptCheckpointRebuilds covers the crash-safety
// contract: a truncated or garbage checkpoint is detected, counted,
// removed, and reported as absent — then a fresh save replaces it.
func TestManagerCorruptCheckpointRebuilds(t *testing.T) {
	dir := t.TempDir()
	tr := obs.New()
	m, err := New(dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := testDiagram(t)
	if err := saveDiagram(m, d); err != nil {
		t.Fatal(err)
	}
	// Truncate the checkpoint to half its size: the CRC frame must
	// reject it.
	path := filepath.Join(dir, "diagram.csdf")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadDiagram(m); ok {
		t.Fatal("truncated checkpoint loaded")
	}
	if got := tr.Counter("ckpt.corrupt.diagram"); got != 1 {
		t.Errorf("counter ckpt.corrupt.diagram = %d, want 1", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt checkpoint not removed")
	}
	// The stage rebuilds and re-checkpoints over the damage.
	if err := saveDiagram(m, d); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadDiagram(m); !ok {
		t.Fatal("re-saved checkpoint does not load")
	}

	// Garbage databases are handled the same way.
	if err := os.WriteFile(filepath.Join(dir, "db-csd.json"), []byte("[{\"id\":1,"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadDatabase(m, "db-csd"); ok {
		t.Fatal("truncated database loaded")
	}
	if got := tr.Counter("ckpt.corrupt.db-csd"); got != 1 {
		t.Errorf("counter ckpt.corrupt.db-csd = %d, want 1", got)
	}
}

// TestWriteAtomicPreservesOldOnFailure checks the torn-write defense:
// a failed write leaves the previous file intact and no temp litter.
func TestWriteAtomicPreservesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "old")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-written")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write error", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "old" {
		t.Fatalf("file = %q, %v; want the old content intact", raw, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestNilManager pins the nil-safety contract call sites rely on.
func TestNilManager(t *testing.T) {
	var m *Manager
	if m.Dir() != "" {
		t.Error("nil manager has a dir")
	}
	if _, ok := loadDiagram(m); ok {
		t.Error("nil manager loaded a diagram")
	}
	if _, ok := loadDatabase(m, "db-csd"); ok {
		t.Error("nil manager loaded a database")
	}
	if err := saveDiagram(m, nil); err != nil {
		t.Errorf("nil manager saved a diagram: %v", err)
	}
	if err := saveDatabase(m, "db-csd", nil); err != nil {
		t.Errorf("nil manager saved a database: %v", err)
	}
}
