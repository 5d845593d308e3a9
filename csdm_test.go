package csdm

import (
	"context"
	"errors"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// TestFacadeEndToEnd drives the public API exactly as the quickstart
// example does.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.NumPOIs = 2000
	cfg.NumPassengers = 250
	cfg.Days = 7
	city := GenerateCity(cfg)
	if len(city.POIs) < cfg.NumPOIs {
		t.Fatalf("POIs = %d", len(city.POIs))
	}
	w := city.GenerateWorkload()
	miner := NewMiner(city.POIs, w.Journeys, DefaultConfig())
	ctx := context.Background()

	d, err := miner.Diagram(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Units) == 0 {
		t.Fatal("no units")
	}
	got, err := miner.Recognize(ctx, city.Hospital)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(poi.MedicalService) {
		t.Fatalf("hospital recognized as %v", got)
	}

	params := DefaultMiningParams()
	params.Sigma = 15
	ps, err := miner.Mine(ctx, CSDPM, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no patterns")
	}
	s := Summarize(ps)
	if s.NumPatterns != len(ps) || s.Coverage <= 0 {
		t.Fatalf("summary = %+v", s)
	}
	for _, p := range ps {
		if sp := SpatialSparsity(p); sp < 0 {
			t.Fatalf("sparsity = %v", sp)
		}
		if sc := SemanticConsistency(p); sc < 0 || sc > 1+1e-9 {
			t.Fatalf("consistency = %v", sc)
		}
	}
	if db, err := miner.Database(ctx, CSDPM); err != nil || len(db) == 0 {
		t.Fatalf("database: %d trajectories, err = %v", len(db), err)
	}
}

// TestFacadeCanceledContext: every Miner operation returns the
// context's error, not an empty result, when its ctx is canceled.
func TestFacadeCanceledContext(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.NumPOIs = 300
	cfg.NumPassengers = 20
	cfg.Days = 1
	city := GenerateCity(cfg)
	miner := NewMiner(city.POIs, city.GenerateWorkload().Journeys, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := miner.Diagram(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Diagram: err = %v, want context.Canceled", err)
	}
	if _, err := miner.Database(ctx, CSDPM); !errors.Is(err, context.Canceled) {
		t.Errorf("Database: err = %v, want context.Canceled", err)
	}
	if _, err := miner.Recognize(ctx, city.Hospital); !errors.Is(err, context.Canceled) {
		t.Errorf("Recognize: err = %v, want context.Canceled", err)
	}
	if _, err := miner.Mine(ctx, CSDPM, DefaultMiningParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("Mine: err = %v, want context.Canceled", err)
	}
	if _, err := miner.MineAll(ctx, DefaultMiningParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("MineAll: err = %v, want context.Canceled", err)
	}
}

func TestFacadeApproaches(t *testing.T) {
	if len(Approaches()) != 6 {
		t.Fatal("want 6 approaches")
	}
	names := map[string]bool{}
	for _, a := range Approaches() {
		names[a.String()] = true
	}
	for _, want := range []string{"CSD-PM", "ROI-PM", "CSD-Splitter", "ROI-Splitter", "CSD-SDBSCAN", "ROI-SDBSCAN"} {
		if !names[want] {
			t.Errorf("missing approach %q", want)
		}
	}
}

func TestFacadeDetectStayPoints(t *testing.T) {
	proj := geo.NewProjection(DefaultCityConfig().Center)
	t0 := time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC)
	var pts []trajectory.GPSPoint
	for i := 0; i < 8; i++ {
		pts = append(pts, trajectory.GPSPoint{
			P: proj.ToPoint(geo.Meters{X: float64(i), Y: 0}),
			T: t0.Add(time.Duration(i) * 5 * time.Minute),
		})
	}
	stays := DetectStayPoints(trajectory.Trajectory{ID: 1, Points: pts},
		trajectory.StayPointParams{MaxDist: 100, MinDuration: 30 * time.Minute})
	if len(stays) != 1 {
		t.Fatalf("stays = %d, want 1", len(stays))
	}
}
