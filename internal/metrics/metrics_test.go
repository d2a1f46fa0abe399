package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(2, 1.5)
	s.Add(2, 0.5)
	s.Add(0, 3)
	if s.At(2) != 2.0 || s.At(0) != 3.0 || s.At(1) != 0 {
		t.Fatalf("series = %v", s.Values())
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Sum(0, 3) != 5.0 {
		t.Fatalf("sum = %v", s.Sum(0, 3))
	}
	if s.Mean(0, 3) != 5.0/3 {
		t.Fatalf("mean = %v", s.Mean(0, 3))
	}
	if s.Max(0, 3) != 3.0 {
		t.Fatalf("max = %v", s.Max(0, 3))
	}
	if s.At(99) != 0 || s.At(-1) != 0 {
		t.Fatal("out-of-range At should be 0")
	}
}

func TestSeriesSetAndNegativeIgnored(t *testing.T) {
	var s Series
	s.Set(1, 7)
	s.Set(1, 9)
	s.Add(-5, 100)
	if s.At(1) != 9 || s.Len() != 2 {
		t.Fatalf("series = %v", s.Values())
	}
}

func TestSeriesEmptyRanges(t *testing.T) {
	var s Series
	if s.Mean(0, 0) != 0 || s.Max(3, 1) != 0 || s.Sum(5, 2) != 0 {
		t.Fatal("empty ranges must be zero")
	}
}

func TestHistogramExactSmall(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 16; i++ {
		h.Record(i)
	}
	if h.Count() != 16 || h.Min() != 0 || h.Max() != 15 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.Quantile(0) != 0 {
		t.Fatalf("q0 = %d", h.Quantile(0))
	}
	if h.Quantile(1) != 15 {
		t.Fatalf("q1 = %d", h.Quantile(1))
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	var samples []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 50_000) // exponential latencies ~50us
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.10 {
			t.Errorf("q%.2f: got %d, exact %d, rel err %.3f", q, got, exact, relErr)
		}
	}
	mean := 0.0
	for _, v := range samples {
		mean += float64(v)
	}
	mean /= float64(len(samples))
	if math.Abs(h.Mean()-mean) > 1e-6 {
		t.Errorf("mean: got %v, want %v", h.Mean(), mean)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		h.Record(int64(rng.Intn(1_000_000)))
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%.2f: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i)
	}
	a.Merge(b)
	if a.Count() != 200 || a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
	empty := NewHistogram()
	a.Merge(empty)
	if a.Count() != 200 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	if h.Summary(1000, "us") != "no samples" {
		t.Fatal("empty summary")
	}
	h.Record(10_000)
	s := h.Summary(1000, "us")
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "us") {
		t.Fatalf("summary = %q", s)
	}
}

func TestBucketIndexInvariants(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		if i < 0 || i >= 64*subBuckets {
			return false
		}
		lo := bucketLow(i)
		// Lower bound must not exceed the value, and the next bucket's lower
		// bound must exceed it (within the bucket granularity).
		if lo > v {
			return false
		}
		if i+1 < 64*subBuckets {
			next := bucketLow(i + 1)
			if next <= v && bucketIndex(v) == i && next != lo {
				// v should then have mapped to a later bucket
				return bucketIndex(v) >= i
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// bucketIndexLoop is bucketIndex as it was before math/bits, with its
// 64-step leading-zero loop: the reference the intrinsic must match.
func bucketIndexLoop(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	lz := 64
	for i := 63; i >= 0; i-- {
		if uint64(v)&(1<<uint(i)) != 0 {
			lz = 63 - i
			break
		}
	}
	exp := 63 - lz
	return exp*subBuckets + int((v>>(uint(exp)-4))&(subBuckets-1))
}

func TestBucketIndexMatchesLoop(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		if got, want := bucketIndex(v), bucketIndexLoop(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, the loop gives %d", v, got, want)
		}
	}
	for v := int64(0); v <= 4096; v++ {
		check(v)
	}
	for e := 0; e < 63; e++ {
		p := int64(1) << e
		check(p - 1)
		check(p)
		check(p + 1)
	}
	check(math.MaxInt64)
}

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Stddev() != 0 {
		t.Fatal("empty distribution must be zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 100} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Fatalf("n = %d", d.N())
	}
	if d.Mean() != 22 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Stddev() < 43 || d.Stddev() > 44 {
		t.Fatalf("stddev = %v", d.Stddev())
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Fatalf("header = %q", lines[0])
	}
}
