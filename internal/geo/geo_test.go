package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceZero(t *testing.T) {
	p := Point{Lat: 42.28, Lon: -83.74}
	if d := Distance(p, p); d != 0 {
		t.Fatalf("Distance(p,p) = %v", d)
	}
}

func TestDistanceKnown(t *testing.T) {
	// One degree of latitude is about 111.2 km.
	a := Point{Lat: 40, Lon: -75}
	b := Point{Lat: 41, Lon: -75}
	d := Distance(a, b)
	if d < 110000 || d > 112500 {
		t.Fatalf("1 degree latitude = %v m", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func TestOffsetRoundTrip(t *testing.T) {
	p := Point{Lat: 42.28, Lon: -83.74}
	q := Offset(p, 1000, 500)
	d := Distance(p, q)
	want := math.Sqrt(1000*1000 + 500*500)
	if math.Abs(d-want) > want*0.01 {
		t.Fatalf("offset distance = %v, want ~%v", d, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	if !r.Contains(Point{0.5, 0.5}) {
		t.Error("center not contained")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{1, 1}) {
		t.Error("edges not contained")
	}
	if r.Contains(Point{1.01, 0.5}) {
		t.Error("outside point contained")
	}
}

func TestIndexNearest(t *testing.T) {
	ix := NewIndex(500)
	base := Point{Lat: 42.28, Lon: -83.74}
	ix.Insert("far", Offset(base, 3000, 0))
	ix.Insert("near", Offset(base, 100, 0))
	ix.Insert("mid", Offset(base, 800, 0))
	got, ok := ix.Nearest(base, 5000)
	if !ok || got.ID != "near" {
		t.Fatalf("Nearest = %+v, %v", got, ok)
	}
	if math.Abs(got.Distance-100) > 2 {
		t.Fatalf("distance = %v, want ~100", got.Distance)
	}
}

func TestIndexNearestNoneWithinRadius(t *testing.T) {
	ix := NewIndex(500)
	base := Point{Lat: 42.28, Lon: -83.74}
	ix.Insert("far", Offset(base, 3000, 0))
	if _, ok := ix.Nearest(base, 1000); ok {
		t.Fatal("found neighbor outside radius")
	}
}

func TestIndexWithinSortedAndComplete(t *testing.T) {
	ix := NewIndex(250)
	base := Point{Lat: 42.28, Lon: -83.74}
	dists := []float64{50, 150, 350, 700, 1500}
	for i, d := range dists {
		ix.Insert(string(rune('a'+i)), Offset(base, d, 0))
	}
	got := ix.Within(base, 800)
	if len(got) != 4 {
		t.Fatalf("Within returned %d items, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestIndexWithinCrossesCells(t *testing.T) {
	// Items in adjacent cells must still be found.
	ix := NewIndex(100)
	base := Point{Lat: 42.28, Lon: -83.74}
	ix.Insert("x", Offset(base, 0, 99))
	ix.Insert("y", Offset(base, 0, -99))
	if n := len(ix.Within(base, 120)); n != 2 {
		t.Fatalf("Within found %d, want 2", n)
	}
}

func TestIndexEmptyAndNegativeRadius(t *testing.T) {
	ix := NewIndex(100)
	if got := ix.Within(Point{}, 100); got != nil {
		t.Fatalf("Within on empty index = %v", got)
	}
	ix.Insert("a", Point{})
	if got := ix.Within(Point{}, -1); got != nil {
		t.Fatalf("negative radius = %v", got)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestIndexDeterministicTieBreak(t *testing.T) {
	ix := NewIndex(100)
	p := Point{Lat: 42.28, Lon: -83.74}
	ix.Insert("b", p)
	ix.Insert("a", p)
	got, ok := ix.Nearest(p, 100)
	if !ok || got.ID != "a" {
		t.Fatalf("tie break = %+v", got)
	}
}

func TestNewIndexPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewIndex(0)
}
