package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// The oracle checks answers against brute force over the points the
// benchmark generated. It runs outside every timed window.

// distTol absorbs the last-bit differences between the index's distance
// kernels and vec.Metric.Dist.
const distTol = 1e-6

func near(a, b float64) bool { return math.Abs(a-b) <= distTol*math.Max(1, math.Abs(b)) }

// pointSet is the ground truth: point i has id ids[i].
type pointSet struct {
	pts []vec.Point
	ids []uint32
}

func sequential(pts []vec.Point) pointSet {
	ids := make([]uint32, len(pts))
	for i := range ids {
		ids[i] = uint32(i)
	}
	return pointSet{pts: pts, ids: ids}
}

func (ps pointSet) byID() map[uint32]vec.Point {
	m := make(map[uint32]vec.Point, len(ps.ids))
	for i, id := range ps.ids {
		m[id] = ps.pts[i]
	}
	return m
}

// knn returns the exact k nearest neighbors of q.
func (ps pointSet) knn(q vec.Point, k int) []vec.Neighbor {
	best := make([]vec.Neighbor, 0, k+1)
	for i, p := range ps.pts {
		d := vec.Euclidean.Dist(p, q)
		if len(best) == k && d >= best[k-1].Dist {
			continue
		}
		at, _ := slices.BinarySearchFunc(best, d, func(n vec.Neighbor, d float64) int {
			switch {
			case n.Dist < d:
				return -1
			case n.Dist > d:
				return 1
			}
			return 0
		})
		best = slices.Insert(best, at, vec.Neighbor{ID: ps.ids[i], Dist: d})
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkKNN verifies an exact KNN answer: a genuine one (see
// checkGenuine) with the same distances as brute force. Ties at equal
// distance may legitimately pick other ids.
func checkKNN(ps pointSet, byID map[uint32]vec.Point, q vec.Point, k int, got []vec.Neighbor) error {
	if err := checkGenuine(byID, q, k, got); err != nil {
		return err
	}
	for i, n := range ps.knn(q, k) {
		if !near(got[i].Dist, n.Dist) {
			return fmt.Errorf("knn: neighbor %d at distance %g, want %g", i, got[i].Dist, n.Dist)
		}
	}
	return nil
}

// checkGenuine verifies a KNN answer is well formed: k distinct indexed
// points in distance order, each at its reported exact distance. An
// approximate answer must pass it too.
func checkGenuine(byID map[uint32]vec.Point, q vec.Point, k int, got []vec.Neighbor) error {
	if !sortedByDist(got, k) {
		return fmt.Errorf("knn: %d neighbors out of order or missing, want %d", len(got), k)
	}
	seen := make(map[uint32]bool, len(got))
	for i, n := range got {
		p, ok := byID[n.ID]
		if !ok || seen[n.ID] || !near(vec.Euclidean.Dist(p, q), n.Dist) {
			return fmt.Errorf("knn: neighbor %d has id %d, not a distinct point at distance %g", i, n.ID, n.Dist)
		}
		seen[n.ID] = true
	}
	return nil
}

// recall returns the share of the exact top-k that an approximate
// answer found, counting a neighbor as found when the answer holds a
// point no farther than it (so ties do not count as misses).
func recall(ps pointSet, q vec.Point, k int, got []vec.Neighbor) float64 {
	want := ps.knn(q, k)
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for i := range want {
		if i < len(got) && got[i].Dist <= want[i].Dist+distTol*math.Max(1, want[i].Dist) {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// checkSet compares the ids of a range or window answer with the ids
// brute force selects; in(p) reports membership and onEdge(p) marks
// points whose membership rounding may decide either way.
func checkSet(ps pointSet, got []vec.Neighbor, in, onEdge func(vec.Point) bool) error {
	gotIDs := make(map[uint32]bool, len(got))
	for _, n := range got {
		if gotIDs[n.ID] {
			return fmt.Errorf("set: id %d returned twice", n.ID)
		}
		gotIDs[n.ID] = true
	}
	for i, p := range ps.pts {
		id := ps.ids[i]
		if in(p) != gotIDs[id] && !onEdge(p) {
			return fmt.Errorf("set: id %d membership %v, want %v", id, gotIDs[id], in(p))
		}
		delete(gotIDs, id)
	}
	if len(gotIDs) > 0 {
		return fmt.Errorf("set: %d returned ids are not indexed points", len(gotIDs))
	}
	return nil
}

func checkRange(ps pointSet, q vec.Point, eps float64, got []vec.Neighbor) error {
	return checkSet(ps, got,
		func(p vec.Point) bool { return vec.Euclidean.Dist(p, q) <= eps },
		func(p vec.Point) bool { return near(vec.Euclidean.Dist(p, q), eps) })
}

func checkWindow(ps pointSet, w vec.MBR, got []vec.Neighbor) error {
	return checkSet(ps, got, w.Contains, func(vec.Point) bool { return false })
}

// sortedByDist reports whether a KNN answer is well formed: k neighbors
// in non-decreasing distance order.
func sortedByDist(nbs []vec.Neighbor, k int) bool {
	if len(nbs) != k {
		return false
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Dist < nbs[i-1].Dist {
			return false
		}
	}
	return true
}

func cloneNeighbors(nbs []vec.Neighbor) []vec.Neighbor {
	out := make([]vec.Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = vec.Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out
}
