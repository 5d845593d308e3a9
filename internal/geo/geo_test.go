package geo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// shanghai is the reference origin used across the test suite.
var shanghai = Point{Lon: 121.47, Lat: 31.23}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(shanghai, shanghai); d != 0 {
		t.Fatalf("Haversine(p,p) = %v, want 0", d)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// One degree of latitude is ~111.19 km on the mean-radius sphere.
	a := Point{Lon: 121.47, Lat: 31.0}
	b := Point{Lon: 121.47, Lat: 32.0}
	d := Haversine(a, b)
	want := EarthRadiusMeters * math.Pi / 180
	if math.Abs(d-want) > 1 {
		t.Fatalf("1° latitude = %.1f m, want %.1f m", d, want)
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		a := Point{Lon: math.Mod(lon1, 180), Lat: math.Mod(lat1, 90)}
		b := Point{Lon: math.Mod(lon2, 180), Lat: math.Mod(lat2, 90)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3 float64) bool {
		// Constrain to a city-sized region to avoid antipodal wrap.
		wrap := func(v, scale float64) float64 { return math.Mod(math.Abs(v), 1) * scale }
		a := Point{Lon: 121 + wrap(x1, 0.5), Lat: 31 + wrap(y1, 0.5)}
		b := Point{Lon: 121 + wrap(x2, 0.5), Lat: 31 + wrap(y2, 0.5)}
		c := Point{Lon: 121 + wrap(x3, 0.5), Lat: 31 + wrap(y3, 0.5)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{Lon: 121.47, Lat: 31.23}, true},
		{Point{Lon: -180, Lat: -90}, true},
		{Point{Lon: 180, Lat: 90}, true},
		{Point{Lon: 181, Lat: 0}, false},
		{Point{Lon: 0, Lat: 91}, false},
		{Point{Lon: math.NaN(), Lat: 0}, false},
		{Point{Lon: 0, Lat: math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(shanghai)
	f := func(dx, dy float64) bool {
		m := Meters{X: math.Mod(dx, 20000), Y: math.Mod(dy, 20000)}
		back := pr.ToMeters(pr.ToPoint(m))
		return math.Abs(back.X-m.X) < 1e-6 && math.Abs(back.Y-m.Y) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionApproximatesHaversine(t *testing.T) {
	pr := NewProjection(shanghai)
	a := Point{Lon: 121.40, Lat: 31.20}
	b := Point{Lon: 121.52, Lat: 31.28}
	planar := pr.ToMeters(a).Dist(pr.ToMeters(b))
	sphere := Haversine(a, b)
	if rel := math.Abs(planar-sphere) / sphere; rel > 0.005 {
		t.Fatalf("projection error %.4f%% too large (planar %.1f, haversine %.1f)",
			rel*100, planar, sphere)
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := NewRect(Point{Lon: 121.4, Lat: 31.2}, Point{Lon: 121.5, Lat: 31.3})
	if !r.Contains(Point{Lon: 121.45, Lat: 31.25}) {
		t.Error("center should be contained")
	}
	if !r.Contains(r.Min) || !r.Contains(r.Max) {
		t.Error("corners should be contained (inclusive)")
	}
	if r.Contains(Point{Lon: 121.39, Lat: 31.25}) {
		t.Error("outside point should not be contained")
	}
	o := NewRect(Point{Lon: 121.49, Lat: 31.29}, Point{Lon: 121.6, Lat: 31.4})
	if !r.Intersects(o) || !o.Intersects(r) {
		t.Error("overlapping rects should intersect both ways")
	}
	far := NewRect(Point{Lon: 122, Lat: 32}, Point{Lon: 123, Lat: 33})
	if r.Intersects(far) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(Point{Lon: 121.5, Lat: 31.3}, Point{Lon: 121.4, Lat: 31.2})
	if r.Min.Lon != 121.4 || r.Min.Lat != 31.2 || r.Max.Lon != 121.5 || r.Max.Lat != 31.3 {
		t.Fatalf("NewRect did not normalize: %+v", r)
	}
}

func TestRectUnionAndExtend(t *testing.T) {
	a := NewRect(Point{Lon: 1, Lat: 1}, Point{Lon: 2, Lat: 2})
	b := NewRect(Point{Lon: 3, Lat: 0}, Point{Lon: 4, Lat: 1})
	u := a.Union(b)
	for _, p := range []Point{a.Min, a.Max, b.Min, b.Max} {
		if !u.Contains(p) {
			t.Errorf("union must contain %v", p)
		}
	}
}

func TestBoundingRect(t *testing.T) {
	if got := (BoundingRect(nil)); got != (Rect{}) {
		t.Fatalf("empty BoundingRect = %+v, want zero", got)
	}
	pts := []Point{{Lon: 1, Lat: 5}, {Lon: 3, Lat: 2}, {Lon: 2, Lat: 9}}
	r := BoundingRect(pts)
	if r.Min.Lon != 1 || r.Min.Lat != 2 || r.Max.Lon != 3 || r.Max.Lat != 9 {
		t.Fatalf("BoundingRect = %+v", r)
	}
}

func TestCircleRectCoversCircle(t *testing.T) {
	const radius = 250.0
	r := CircleRect(shanghai, radius)
	// Sample the circle boundary; every boundary point must fall inside.
	pr := NewProjection(shanghai)
	for i := 0; i < 16; i++ {
		ang := float64(i) / 16 * 2 * math.Pi
		p := pr.ToPoint(Meters{X: radius * math.Cos(ang), Y: radius * math.Sin(ang)})
		if !r.Contains(p) {
			t.Fatalf("boundary point %v at angle %.2f outside CircleRect", p, ang)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{Lon: 0, Lat: 0}, {Lon: 2, Lat: 0}, {Lon: 1, Lat: 3}}
	c := Centroid(pts)
	if c.Lon != 1 || c.Lat != 1 {
		t.Fatalf("Centroid = %v, want (1,1)", c)
	}
	if z := Centroid(nil); z != (Point{}) {
		t.Fatalf("Centroid(nil) = %v", z)
	}
}

func TestVarianceZeroForIdenticalPoints(t *testing.T) {
	pts := []Point{shanghai, shanghai, shanghai}
	if v := VarianceMeters(pts); v > 1e-9 {
		t.Fatalf("VarianceMeters of identical points = %v", v)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Lon: 121 + math.Mod(raw[i], 1),
				Lat: 31 + math.Mod(raw[i+1], 1),
			})
		}
		return VarianceMeters(pts) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGyrationRadiusAndDensity(t *testing.T) {
	pr := NewProjection(shanghai)
	// Four points on a 100 m circle: gyration radius = 100 m.
	var pts []Point
	for i := 0; i < 4; i++ {
		ang := float64(i) / 4 * 2 * math.Pi
		pts = append(pts, pr.ToPoint(Meters{X: 100 * math.Cos(ang), Y: 100 * math.Sin(ang)}))
	}
	if r := GyrationRadius(pts); math.Abs(r-100) > 0.5 {
		t.Fatalf("GyrationRadius = %v, want ~100", r)
	}
	want := 4 / (math.Pi * 100 * 100)
	if d := Density(pts); math.Abs(d-want)/want > 0.02 {
		t.Fatalf("Density = %v, want ~%v", d, want)
	}
}

func TestDensityClampsDegenerateSets(t *testing.T) {
	pts := []Point{shanghai, shanghai, shanghai}
	want := 3 / (math.Pi * MinDensityRadius * MinDensityRadius)
	if d := Density(pts); math.Abs(d-want) > 1e-9 {
		t.Fatalf("Density of coincident points = %v, want %v", d, want)
	}
	if d := Density(nil); d != 0 {
		t.Fatalf("Density(nil) = %v", d)
	}
}

func TestMeanPairwiseDistance(t *testing.T) {
	if d := MeanPairwiseDistance([]Point{shanghai}); d != 0 {
		t.Fatalf("single point mean pairwise = %v", d)
	}
	pr := NewProjection(shanghai)
	a := pr.ToPoint(Meters{X: 0, Y: 0})
	b := pr.ToPoint(Meters{X: 30, Y: 0})
	c := pr.ToPoint(Meters{X: 60, Y: 0})
	// pairs: 30 + 60 + 30 = 120; /3 = 40.
	if d := MeanPairwiseDistance([]Point{a, b, c}); math.Abs(d-40) > 0.1 {
		t.Fatalf("MeanPairwiseDistance = %v, want ~40", d)
	}
}

func TestNearestAndMedoidIndex(t *testing.T) {
	pr := NewProjection(shanghai)
	pts := []Point{
		pr.ToPoint(Meters{X: -100, Y: 0}),
		pr.ToPoint(Meters{X: 5, Y: 0}),
		pr.ToPoint(Meters{X: 200, Y: 0}),
	}
	if i := NearestIndex(shanghai, pts); i != 1 {
		t.Fatalf("NearestIndex = %d, want 1", i)
	}
	if i := MedoidIndex(pts); i != 1 {
		t.Fatalf("MedoidIndex = %d, want 1", i)
	}
	if i := NearestIndex(shanghai, nil); i != -1 {
		t.Fatalf("NearestIndex(nil) = %d, want -1", i)
	}
	if i := MedoidIndex(nil); i != -1 {
		t.Fatalf("MedoidIndex(nil) = %d, want -1", i)
	}
}

func TestGaussianKernelProperties(t *testing.T) {
	k := NewGaussianKernel(100)
	if k.Radius() != 100 {
		t.Fatalf("Radius = %v", k.Radius())
	}
	peak := k.WeightDist(0)
	want := 1 / ((100.0 / 3) * math.Sqrt(2*math.Pi))
	if math.Abs(peak-want) > 1e-12 {
		t.Fatalf("peak = %v, want %v", peak, want)
	}
	// Monotone decreasing in distance.
	prev := peak
	for d := 10.0; d <= 200; d += 10 {
		w := k.WeightDist(d)
		if w >= prev {
			t.Fatalf("kernel not decreasing at d=%v: %v >= %v", d, w, prev)
		}
		prev = w
	}
	// The per-pair weight equals WeightDist of the Haversine distance.
	pr := NewProjection(shanghai)
	p := pr.ToPoint(Meters{X: 50, Y: 0})
	if w1, w2 := k.WeightCos(shanghai, CosLat(shanghai.Lat), p, CosLat(p.Lat)), k.WeightDist(Haversine(shanghai, p)); math.Abs(w1-w2) > 1e-15 {
		t.Fatalf("Weight mismatch: %v vs %v", w1, w2)
	}
}

func TestGaussianKernelPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive radius")
		}
	}()
	NewGaussianKernel(0)
}

func BenchmarkHaversine(b *testing.B) {
	p := Point{Lon: 121.48, Lat: 31.24}
	for i := 0; i < b.N; i++ {
		Haversine(shanghai, p)
	}
}

func BenchmarkProjectionToMeters(b *testing.B) {
	pr := NewProjection(shanghai)
	p := Point{Lon: 121.48, Lat: 31.24}
	for i := 0; i < b.N; i++ {
		pr.ToMeters(p)
	}
}

func TestCheckCoordReasons(t *testing.T) {
	cases := []struct {
		lon, lat float64
		reason   string // "" = valid
	}{
		{0, 0, ""},
		{121.47, 31.23, ""},
		{-180, -90, ""},
		{180, 90, ""},
		{math.NaN(), 0, "nan"},
		{0, math.NaN(), "nan"},
		{math.Inf(1), 0, "inf"},
		{0, math.Inf(-1), "inf"},
		{181, 0, "lon-range"},
		{-180.001, 0, "lon-range"},
		{0, 91, "lat-range"},
		{0, -90.5, "lat-range"},
		// NaN wins over a range violation, matching the documented order.
		{math.NaN(), 200, "nan"},
	}
	for _, c := range cases {
		err := CheckCoord(c.lon, c.lat)
		if c.reason == "" {
			if err != nil {
				t.Errorf("CheckCoord(%v, %v) = %v, want nil", c.lon, c.lat, err)
			}
			continue
		}
		var ce *CoordError
		if !errors.As(err, &ce) || ce.Reason != c.reason {
			t.Errorf("CheckCoord(%v, %v) = %v, want reason %q", c.lon, c.lat, err, c.reason)
		}
		if p := (Point{Lon: c.lon, Lat: c.lat}); p.Valid() {
			t.Errorf("Point(%v, %v).Valid() = true with reason %q", c.lon, c.lat, c.reason)
		}
	}
}

func TestClampProducesValidPoints(t *testing.T) {
	cases := []struct{ in, want Point }{
		{Point{Lon: 121, Lat: 31}, Point{Lon: 121, Lat: 31}},
		{Point{Lon: 200, Lat: -100}, Point{Lon: 180, Lat: -90}},
		{Point{Lon: -999, Lat: 99}, Point{Lon: -180, Lat: 90}},
		{Point{Lon: math.Inf(1), Lat: math.Inf(-1)}, Point{Lon: 180, Lat: -90}},
		{Point{Lon: math.NaN(), Lat: math.NaN()}, Point{}},
	}
	for _, c := range cases {
		got := Clamp(c.in)
		if got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.Valid() {
			t.Errorf("Clamp(%v) = %v is invalid", c.in, got)
		}
	}
}

func TestExpandMetersCoversHalo(t *testing.T) {
	const halo = 100.0
	// A tall tile far from the equator, where a center-latitude cosine
	// under-covers: every point within halo meters of the rect boundary
	// must land inside the expanded rect.
	r := Rect{Min: Point{Lon: 11.0, Lat: 59.0}, Max: Point{Lon: 11.2, Lat: 60.5}}
	ex := r.ExpandMeters(halo)
	if !ex.Contains(r.Min) || !ex.Contains(r.Max) {
		t.Fatal("ExpandMeters does not contain the original rect")
	}
	for i := 0; i < 64; i++ {
		// Walk the boundary, push halo meters outward from each corner
		// and edge midpoint in 16 directions.
		fx := float64(i%8) / 7
		fy := float64(i/8) / 7
		edge := Point{Lon: r.Min.Lon + fx*(r.Max.Lon-r.Min.Lon), Lat: r.Min.Lat + fy*(r.Max.Lat-r.Min.Lat)}
		pr := NewProjection(edge)
		for k := 0; k < 16; k++ {
			ang := float64(k) / 16 * 2 * math.Pi
			p := pr.ToPoint(Meters{X: halo * math.Cos(ang), Y: halo * math.Sin(ang)})
			if Haversine(edge, p) > halo+1e-6 {
				continue // projection overshoot; only in-halo points matter
			}
			if !ex.Contains(p) {
				t.Fatalf("point %v within %vm of rect point %v escapes ExpandMeters(%v)", p, halo, edge, halo)
			}
		}
	}
}

func TestExpandMetersZeroAndPoleClamp(t *testing.T) {
	r := Rect{Min: Point{Lon: 10, Lat: 20}, Max: Point{Lon: 11, Lat: 21}}
	if got := r.ExpandMeters(0); got != r {
		t.Fatalf("ExpandMeters(0) = %v, want unchanged", got)
	}
	polar := Rect{Min: Point{Lon: -10, Lat: 89.9}, Max: Point{Lon: 10, Lat: 89.95}}
	ex := polar.ExpandMeters(50_000)
	if ex.Max.Lat != 90 {
		t.Fatalf("polar expand Max.Lat = %v, want clamp at 90", ex.Max.Lat)
	}
	if ex.Min.Lon != -180 || ex.Max.Lon != 180 {
		t.Fatalf("polar expand lon span = [%v, %v], want full circle", ex.Min.Lon, ex.Max.Lon)
	}
}

func TestRectIntersectionAndDegArea(t *testing.T) {
	a := Rect{Min: Point{Lon: 0, Lat: 0}, Max: Point{Lon: 2, Lat: 2}}
	b := Rect{Min: Point{Lon: 1, Lat: 1}, Max: Point{Lon: 3, Lat: 4}}
	inter, ok := a.Intersection(b)
	if !ok {
		t.Fatal("overlapping rects reported disjoint")
	}
	want := Rect{Min: Point{Lon: 1, Lat: 1}, Max: Point{Lon: 2, Lat: 2}}
	if inter != want {
		t.Fatalf("Intersection = %v, want %v", inter, want)
	}
	if got := inter.DegArea(); got != 1 {
		t.Fatalf("DegArea = %v, want 1", got)
	}
	far := Rect{Min: Point{Lon: 10, Lat: 10}, Max: Point{Lon: 11, Lat: 11}}
	if _, ok := a.Intersection(far); ok {
		t.Fatal("disjoint rects reported overlapping")
	}
	// Containment: intersection is the smaller rect, full coverage.
	inner := Rect{Min: Point{Lon: 0.5, Lat: 0.5}, Max: Point{Lon: 1.5, Lat: 1.5}}
	inter, ok = a.Intersection(inner)
	if !ok || inter != inner {
		t.Fatalf("Intersection with contained rect = %v ok=%v, want %v", inter, ok, inner)
	}
}
