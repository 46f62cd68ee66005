package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

func TestIteratorFullRanking(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 1200, 6)
	tr := buildTree(t, pts, DefaultOptions())
	q := randPoints(r, 1, 6)[0]

	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = vec.Euclidean.Dist(q, p)
	}
	sort.Float64s(want)

	it := tr.NewNNIterator(tr.sto.NewSession(), q)
	for i := 0; i < len(pts); i++ {
		nb, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted after %d of %d: %v", i, len(pts), it.Err())
		}
		if math.Abs(nb.Dist-want[i]) > 1e-5 {
			t.Fatalf("rank %d: dist %.7f, want %.7f", i, nb.Dist, want[i])
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator returned more points than the database holds")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorPrefixMatchesKNN(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 3000, 10)
	tr := buildTree(t, pts, DefaultOptions())
	for qi, q := range randPoints(r, 5, 10) {
		knn := mustKNN(t, tr, q, 12)
		it := tr.NewNNIterator(tr.sto.NewSession(), q)
		for i := 0; i < 12; i++ {
			nb, ok := it.Next()
			if !ok {
				t.Fatalf("query %d: iterator dry at %d", qi, i)
			}
			if math.Abs(nb.Dist-knn[i].Dist) > 1e-6 {
				t.Fatalf("query %d rank %d: %.7f vs KNN %.7f", qi, i, nb.Dist, knn[i].Dist)
			}
		}
	}
}

func TestIteratorCostGrowsWithPulls(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 5000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	q := randPoints(r, 1, 8)[0]

	s := tr.sto.NewSession()
	it := tr.NewNNIterator(s, q)
	it.Next()
	after1 := s.Time()
	for i := 0; i < 500; i++ {
		it.Next()
	}
	after500 := s.Time()
	if after500 <= after1 {
		t.Fatalf("pulling 500 more neighbors cost nothing: %f vs %f", after500, after1)
	}
	// The first pull must not have paid for the whole database.
	sFull := tr.sto.NewSession()
	full := tr.NewNNIterator(sFull, q)
	for {
		if _, ok := full.Next(); !ok {
			break
		}
	}
	if after1 >= sFull.Time() {
		t.Fatalf("first pull cost the full enumeration: %f vs %f", after1, sFull.Time())
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorVariants(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 1000, 5)
	for _, opt := range []Options{
		DefaultOptions(),
		{Metric: vec.Maximum, QPageBlocks: 1, Quantize: true, OptimizedIO: true},
		{Metric: vec.Euclidean, QPageBlocks: 1, Quantize: false, OptimizedIO: false},
	} {
		tr := buildTree(t, pts, opt)
		q := randPoints(r, 1, 5)[0]
		want := make([]float64, len(pts))
		for i, p := range pts {
			want[i] = opt.Metric.Dist(q, p)
		}
		sort.Float64s(want)
		it := tr.NewNNIterator(tr.sto.NewSession(), q)
		for i := 0; i < 50; i++ {
			nb, ok := it.Next()
			if !ok || math.Abs(nb.Dist-want[i]) > 1e-5 {
				t.Fatalf("opt %+v rank %d: %+v want %.7f", opt, i, nb, want[i])
			}
		}
	}
}

// TestIteratorDegradedReads: with checksums on and a quantized page
// corrupted at rest, the iterator answers the damaged page from its
// exact shadow and yields the same neighbor sequence as a clean twin.
func TestIteratorDegradedReads(t *testing.T) {
	const n, dim = 1500, 6
	cleanSto, clean, _ := buildCheckedTree(t, 21, n, dim, DefaultOptions())
	sto, tr, _ := buildCheckedTree(t, 21, n, dim, DefaultOptions())
	comp := compressedPages(tr)
	if len(comp) == 0 {
		t.Fatal("no compressed pages")
	}
	flipQPageBit(t, sto, comp[len(comp)/2], tr.Options().QPageBlocks)

	q := randPoints(rand.New(rand.NewSource(22)), 1, dim)[0]
	want := clean.NewNNIterator(cleanSto.NewSession(), q)
	got := tr.NewNNIterator(sto.NewSession(), q)
	for i := 0; i < n; i++ {
		w, ok := want.Next()
		if !ok {
			t.Fatalf("clean iterator dry at %d: %v", i, want.Err())
		}
		g, ok := got.Next()
		if !ok {
			t.Fatalf("iterator over the damaged tree stopped at %d: %v", i, got.Err())
		}
		if g.ID != w.ID || g.Dist != w.Dist {
			t.Fatalf("rank %d: got (%d, %v), clean twin (%d, %v)", i, g.ID, g.Dist, w.ID, w.Dist)
		}
	}
	if _, ok := got.Next(); ok || got.Err() != nil {
		t.Fatalf("after the last point: ok=%v err=%v", ok, got.Err())
	}
	if len(tr.QuarantinedPages()) == 0 {
		t.Fatal("the corrupt page was never read")
	}
}
