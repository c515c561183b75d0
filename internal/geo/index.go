package geo

import (
	"math"
	"sort"
)

// Index is a uniform-grid spatial index over identified points. It
// supports the two queries the RSP pipeline needs: the nearest item to a
// location sample (entity resolution) and all items within a radius
// (choice-set features, §4.1). The zero value is not usable; construct
// with NewIndex.
type Index struct {
	cellDeg float64
	cells   map[cellKey][]item
	n       int
}

type cellKey struct{ lat, lon int32 }

type item struct {
	id string
	pt Point
}

// Neighbor is one result of a proximity query.
type Neighbor struct {
	ID       string
	Point    Point
	Distance float64 // meters from the query point
}

// NewIndex returns an index whose grid cells are approximately
// cellMeters on a side. Typical use is cellMeters ≈ the largest radius
// queried. It panics if cellMeters <= 0.
func NewIndex(cellMeters float64) *Index {
	if cellMeters <= 0 {
		panic("geo: NewIndex with non-positive cell size")
	}
	// 1 degree latitude ≈ 111,320 m.
	return &Index{
		cellDeg: cellMeters / 111320,
		cells:   make(map[cellKey][]item),
	}
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return ix.n }

func (ix *Index) key(p Point) cellKey {
	return cellKey{
		lat: int32(math.Floor(p.Lat / ix.cellDeg)),
		lon: int32(math.Floor(p.Lon / ix.cellDeg)),
	}
}

// Insert adds an item with the given id at point p. Multiple items may
// share an id; the index does not deduplicate.
func (ix *Index) Insert(id string, p Point) {
	k := ix.key(p)
	ix.cells[k] = append(ix.cells[k], item{id: id, pt: p})
	ix.n++
}

// Within returns all items within radius meters of p, sorted by
// ascending distance (ties broken by id for determinism).
func (ix *Index) Within(p Point, radius float64) []Neighbor {
	if radius < 0 || ix.n == 0 {
		return nil
	}
	// The grid is indexed in degrees of latitude; near the poles a cell
	// covers less longitude, so widen the lon ring accordingly.
	ringLat := int32(math.Ceil(radius/111320/ix.cellDeg)) + 1
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	if cosLat < 0.1 {
		cosLat = 0.1
	}
	ringLon := int32(math.Ceil(radius/(111320*cosLat)/ix.cellDeg)) + 1
	center := ix.key(p)
	var out []Neighbor
	for dLat := -ringLat; dLat <= ringLat; dLat++ {
		for dLon := -ringLon; dLon <= ringLon; dLon++ {
			k := cellKey{lat: center.lat + dLat, lon: center.lon + dLon}
			for _, it := range ix.cells[k] {
				d := Distance(p, it.pt)
				if d <= radius {
					out = append(out, Neighbor{ID: it.id, Point: it.pt, Distance: d})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Nearest returns the closest item to p within maxRadius meters and true,
// or a zero Neighbor and false if none exists. When several items tie, the
// smallest id wins, keeping resolution deterministic.
func (ix *Index) Nearest(p Point, maxRadius float64) (Neighbor, bool) {
	// Expand the search ring geometrically so the common case (a match in
	// the immediate cell neighborhood) stays cheap.
	for r := math.Min(maxRadius, 200.0); ; r *= 4 {
		if r > maxRadius {
			r = maxRadius
		}
		if res := ix.Within(p, r); len(res) > 0 {
			return res[0], true
		}
		if r >= maxRadius {
			return Neighbor{}, false
		}
	}
}
