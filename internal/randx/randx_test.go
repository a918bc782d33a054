package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn(10): value %d drawn %d times, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", got)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	if r.Bool(-0.5) {
		t.Error("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Error("Bool(1.5) returned false")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestParetoProperties(t *testing.T) {
	r := New(17)
	const n = 100000
	xm, alpha := 2.0, 3.0
	// All draws >= xm; empirical CDF at selected points matches the
	// analytic CDF 1-(xm/x)^alpha.
	draws := make([]float64, n)
	for i := range draws {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto draw %v below scale %v", v, xm)
		}
		draws[i] = v
	}
	for _, x := range []float64{2.5, 3, 4, 8} {
		want := 1 - math.Pow(xm/x, alpha)
		hits := 0
		for _, v := range draws {
			if v <= x {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pareto CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	r := New(19)
	z := NewZipf(20, 1.0)
	counts := make([]int, 20)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Draw(r)
		if v < 0 || v >= 20 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] || counts[5] <= counts[19] {
		t.Errorf("Zipf counts not decreasing: %v", counts)
	}
	// Rank 0 should appear roughly 1/H(20) of the time (H = harmonic).
	h := 0.0
	for k := 1; k <= 20; k++ {
		h += 1 / float64(k)
	}
	want := 1 / h
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Zipf P(rank 0) = %v, want %v", got, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(29)
	counts := make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[r.Perm(5)[0]]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Perm(5)[0]=%d drawn %d times, want ~10000", v, c)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(31)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option drawn %d times", counts[1])
	}
	got := float64(counts[2]) / n
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("weight-3 option rate %v, want ~0.75", got)
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedChoice with zero total did not panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestSplitIndependence(t *testing.T) {
	// Streams split with different labels from identical parents differ.
	a := New(1).Split(1)
	b := New(1).Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/1000 draws", same)
	}
	// Same label from same parent state is reproducible.
	c := New(1).Split(1)
	d := New(1).Split(1)
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("identical splits diverged")
		}
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a := New(77)
	b := New(77)
	for label := uint64(0); label < 20; label++ {
		want := a.Split(label)
		var got Rand
		b.SplitInto(label, &got)
		for i := 0; i < 50; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("label %d draw %d: SplitInto %d, Split %d", label, i, g, w)
			}
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	r.Uint64()
	r.Reseed(99)
	want := New(99)
	for i := 0; i < 50; i++ {
		if g, w := r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: Reseed %d, New %d", i, g, w)
		}
	}
}

func TestMixDeterministicPureFunction(t *testing.T) {
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix is not deterministic")
	}
	// Pure: interleaving other Mix calls or generator draws changes nothing.
	a := Mix(7, 0, 41)
	New(99).Uint64()
	Mix(8, 1, 2)
	if Mix(7, 0, 41) != a {
		t.Fatal("Mix depends on external state")
	}
}

func TestMixSeparatesCoordinates(t *testing.T) {
	// Streams keyed by (seed, sweep, chunk) must differ when any
	// coordinate moves, including order swaps and the zero coordinate.
	seen := map[uint64][]uint64{}
	add := func(labels ...uint64) {
		h := Mix(labels...)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix collision: %v and %v both hash to %d", prev, labels, h)
		}
		seen[h] = labels
	}
	add(0, 0, 0)
	add(0, 0, 1)
	add(0, 1, 0)
	add(1, 0, 0)
	add(2, 1, 0)
	add(0, 1, 2)
	add(2, 0, 1)
	for s := uint64(0); s < 8; s++ {
		for c := uint64(0); c < 32; c++ {
			add(42, s, c+100)
		}
	}
}

func TestMixSeedsHealthyStreams(t *testing.T) {
	// A generator seeded from Mix must look uniform, not degenerate.
	r := New(Mix(3, 14, 15))
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Mix-seeded stream mean %v, want ≈ 0.5", mean)
	}
}
