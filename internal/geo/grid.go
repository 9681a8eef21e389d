package geo

import (
	"math"
	"sort"
)

// Speeder is an optional Mobility extension reporting an upper bound on a
// model's speed. Spatial indexes over moving nodes (phy.Medium's grid) use
// the bound to decide how stale a node's cell assignment may get before it
// must be re-bucketed; models without a finite bound are re-bucketed on
// every query timestamp instead.
type Speeder interface {
	// MaxSpeed returns an upper bound on the node's speed in meters per
	// second. 0 means the node never moves.
	MaxSpeed() float64
}

// MaxSpeedOf returns m's speed bound, or +Inf when the model does not
// implement Speeder (no bound known).
func MaxSpeedOf(m Mobility) float64 {
	if s, ok := m.(Speeder); ok {
		return s.MaxSpeed()
	}
	return math.Inf(1)
}

// gridCell addresses one bucket of the uniform hash grid.
type gridCell struct{ x, y int64 }

// Grid is a uniform spatial hash index mapping small non-negative integer
// IDs to 2D positions. Cells are square with a fixed edge; a range query
// visits only the cells intersecting the query disc, so with a cell size
// matching the query radius it touches a small constant number of cells
// regardless of population.
//
// QueryRange and Near return candidates in ascending ID order. Callers
// that iterate candidates and perform side effects (the wireless medium
// scheduling receptions) rely on that order being identical to a
// brute-force scan over IDs, so it is part of the contract, not an
// implementation detail.
type Grid struct {
	cell  float64
	cells map[gridCell][]int
	// where[id] is the cell currently holding id, valid when present[id].
	where   []gridCell
	present []bool

	// Near's per-cell answers. version is bumped whenever an entry changes
	// cell or Near is asked for a different radius than nearR; a cached
	// answer is valid while its version matches.
	version uint64
	nearR   float64
	near    map[gridCell]*nearAnswer
}

// nearAnswer is Near's cached answer for one query cell.
type nearAnswer struct {
	version uint64
	ids     []int
}

// NewGrid returns an empty grid with the given cell edge length in meters.
// Cell size should match the dominant query radius so queries touch a small
// constant number of cells. It panics on a non-positive cell size.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic("geo: NewGrid requires a positive cell size")
	}
	return &Grid{cell: cellSize, cells: make(map[gridCell][]int), near: make(map[gridCell]*nearAnswer)}
}

// CellSize returns the cell edge length the grid was built with.
func (g *Grid) CellSize() float64 { return g.cell }

// cellCoord converts one floored cell index to int64, clamping instead of
// truncating. The seed implementation cast through int32, so a mobility
// model wandering past ±2³¹ cells silently aliased distant buckets and
// broke QueryRange's documented superset guarantee. The clamp bound sits
// far beyond the last float64 with unit precision, so clamped coordinates
// still order correctly against every in-range value, and NaN (from a
// degenerate position) maps to a fixed cell instead of tripping Go's
// implementation-defined float→int conversion.
func cellCoord(v float64) int64 {
	const bound = int64(1) << 62
	switch {
	case math.IsNaN(v):
		return 0
	case v >= float64(bound):
		return bound
	case v <= -float64(bound):
		return -bound
	}
	return int64(v)
}

// CellIndex returns the floored cell index of coordinate v on one axis of
// a grid with the given cell edge, with the same clamping as Grid's own
// bucketing. Exported so code that reasons about grid cells from outside —
// stripe homing (Stripes), the wireless medium's stripe-boundary occupancy
// columns — shares one definition of "which cell is this" with the index
// itself.
func CellIndex(v, cellSize float64) int64 {
	return cellCoord(math.Floor(v / cellSize))
}

func (g *Grid) cellFor(p Point) gridCell {
	return gridCell{
		x: CellIndex(p.X, g.cell),
		y: CellIndex(p.Y, g.cell),
	}
}

// Insert adds id at position p. Inserting an already-present id behaves
// like Move. IDs must be non-negative and should be dense (they index an
// internal slice).
func (g *Grid) Insert(id int, p Point) { g.Move(id, p) }

// Move updates id's position, re-bucketing only when its cell changed.
// Moving an absent id inserts it.
func (g *Grid) Move(id int, p Point) {
	for id >= len(g.present) {
		g.present = append(g.present, false)
		g.where = append(g.where, gridCell{})
	}
	c := g.cellFor(p)
	if g.present[id] {
		if g.where[id] == c {
			return
		}
		g.removeFromCell(id, g.where[id])
	}
	g.present[id] = true
	g.where[id] = c
	g.cells[c] = append(g.cells[c], id)
	g.version++
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.present) || !g.present[id] {
		return
	}
	g.removeFromCell(id, g.where[id])
	g.present[id] = false
	g.version++
}

func (g *Grid) removeFromCell(id int, c gridCell) {
	ids := g.cells[c]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			g.cells[c] = ids[:len(ids)-1]
			return
		}
	}
}

// QueryRange appends to out every id whose cell intersects the disc of
// radius r around center and returns out sorted in ascending ID order. The
// result is a superset of the ids whose stored position lies within r of
// center; callers filter with exact positions. Entries are bucketed by the
// position last passed to Insert/Move, so callers must bound how far an
// entry may have drifted since and widen r by that bound.
func (g *Grid) QueryRange(center Point, r float64, out []int) []int {
	if r < 0 {
		return out
	}
	lo := g.cellFor(Point{X: center.X - r, Y: center.Y - r})
	hi := g.cellFor(Point{X: center.X + r, Y: center.Y + r})
	r2 := r * r
	for cx := lo.x; cx <= hi.x; cx++ {
		dx := axisDist(center.X, float64(cx)*g.cell, g.cell)
		for cy := lo.y; cy <= hi.y; cy++ {
			ids := g.cells[gridCell{x: cx, y: cy}]
			if len(ids) == 0 {
				continue
			}
			dy := axisDist(center.Y, float64(cy)*g.cell, g.cell)
			if dx*dx+dy*dy > r2 {
				continue
			}
			out = append(out, ids...)
		}
	}
	sort.Ints(out)
	return out
}

// Near returns, in ascending ID order, every entry bucketed in a cell whose
// gap to p's cell is at most r: the cells are padded to their full extent
// on both sides, so the answer depends only on p's cell, never on where in
// it p lies. That makes it a superset of QueryRange(p, r) — any cell the
// disc around p touches is within r of p's own cell — and lets the answer
// be cached per cell: a repeated query from the same cell with no entry
// having changed cell since costs one map lookup and no sort or
// allocation. The returned slice is owned by the grid and valid until the
// next Insert, Move, Remove or Near call; callers must not modify it.
func (g *Grid) Near(p Point, r float64) []int {
	if !(r >= 0) {
		return nil
	}
	if r != g.nearR {
		g.nearR = r
		g.version++
	}
	c := g.cellFor(p)
	a := g.near[c]
	if a == nil {
		a = &nearAnswer{}
		g.near[c] = a
	} else if a.version == g.version {
		return a.ids
	}
	a.version = g.version
	a.ids = a.ids[:0]
	// Cells d steps away along an axis leave a gap of |d|-1 whole cells.
	// The radius is widened by a millionth of a cell: a position within
	// rounding of a cell edge may floor into the neighboring cell, and the
	// widening keeps every cell QueryRange could visit from there.
	reach := r + g.cell*1e-6
	k := int64(math.Floor(reach/g.cell)) + 1
	r2 := reach * reach
	for dx := -k; dx <= k; dx++ {
		gx := gapCells(dx) * g.cell
		for dy := -k; dy <= k; dy++ {
			gy := gapCells(dy) * g.cell
			if gx*gx+gy*gy > r2 {
				continue
			}
			a.ids = append(a.ids, g.cells[gridCell{x: c.x + dx, y: c.y + dy}]...)
		}
	}
	sort.Ints(a.ids)
	return a.ids
}

// gapCells returns the number of whole cells between a cell and the one d
// steps away along an axis.
func gapCells(d int64) float64 {
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	return float64(d - 1)
}

// axisDist returns the distance from coordinate v to the interval
// [lo, lo+width] along one axis (0 when v lies inside it).
func axisDist(v, lo, width float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > lo+width {
		return v - (lo + width)
	}
	return 0
}
