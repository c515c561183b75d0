// Package geo provides the geometric substrate for the synthetic world:
// points on the earth, haversine distances, rectangular regions standing
// in for zip codes, and a uniform-grid spatial index used to resolve a
// device's location samples to nearby entities.
//
// The paper's client "map[s] location to restaurant" and its inference
// features include "the distance traveled by a user to visit a dentist"
// and "the number of other similar options" nearby (§4.1); all three need
// fast proximity queries, which Index provides.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean earth radius used by Distance.
const EarthRadiusMeters = 6371000

// Point is a position on the earth in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String renders the point as "lat,lon" with 6 decimal places.
func (p Point) String() string { return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon) }

// Distance returns the haversine great-circle distance between a and b in
// meters.
func Distance(a, b Point) float64 {
	const degToRad = math.Pi / 180
	la1 := a.Lat * degToRad
	la2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Offset returns the point reached by moving dNorth meters north and
// dEast meters east of p, using a local flat-earth approximation that is
// accurate for the city-scale distances in this repository.
func Offset(p Point, dNorth, dEast float64) Point {
	const degToRad = math.Pi / 180
	dLat := dNorth / EarthRadiusMeters / degToRad
	dLon := dEast / (EarthRadiusMeters * math.Cos(p.Lat*degToRad)) / degToRad
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// Rect is an axis-aligned region in degrees, used to model the area a zip
// code covers.
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Contains reports whether p lies in r (inclusive on all edges).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}
