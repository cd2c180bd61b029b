package main

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestMedianPercentileMin(t *testing.T) {
	cases := []struct {
		xs       []float64
		p        float64
		want     float64
		wantMed  float64
		wantMinV float64
	}{
		{[]float64{3, 1, 2}, 50, 2, 2, 1},
		{[]float64{4, 1, 3, 2}, 50, 2.5, 2.5, 1},
		{[]float64{5, 4, 3, 2, 1}, 90, 4.6, 3, 1}, // position 0.9·4 = 3.6
		{[]float64{5, 4, 3, 2, 1}, 0, 1, 3, 1},
		{[]float64{5, 4, 3, 2, 1}, 100, 5, 3, 1},
		{[]float64{7}, 90, 7, 7, 7},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
		if got := median(c.xs); got != c.wantMed {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.wantMed)
		}
		if got := minOf(c.xs); got != c.wantMinV {
			t.Errorf("minOf(%v) = %g, want %g", c.xs, got, c.wantMinV)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("input modified: %v, was %v", c.xs, in)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(minOf(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestMakeProbesHandComputed(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Low-rank accuracy: 3 items ≤ 3.5.
	if got := makeProbes(sorted, false, []float64{0.3}); !slices.Equal(got, []probe{{3.5, 3}}) {
		t.Errorf("LRA probes = %v, want [{3.5 3}]", got)
	}
	// High-rank accuracy: 2 items > 8.5.
	if got := makeProbes(sorted, true, []float64{0.2}); !slices.Equal(got, []probe{{8.5, 2}}) {
		t.Errorf("HRA probes = %v, want [{8.5 2}]", got)
	}
	// A probe that would sit on a tie, one at rank 0 and one at rank n
	// are skipped, and so is a repeated rank.
	tied := []float64{1, 2, 2, 2, 3}
	if got := makeProbes(tied, false, []float64{0, 0.4, 1}); len(got) != 0 {
		t.Errorf("probes on ties = %v, want none", got)
	}
	if got := makeProbes(sorted, false, []float64{0.25, 0.3}); len(got) != 1 {
		t.Errorf("repeated rank probed twice: %v", got)
	}
}

// TestProbesMatchBruteForce checks the oracle's ranks against counting.
func TestProbesMatchBruteForce(t *testing.T) {
	vals := newStream(9, 50000)
	sorted := slices.Clone(vals)
	sort.Float64s(sorted)
	for _, hra := range []bool{false, true} {
		ps := makeProbes(sorted, hra, probeFracs)
		if len(ps) < len(probeFracs)-1 {
			t.Fatalf("hra=%v: only %d probes", hra, len(ps))
		}
		for _, p := range ps {
			var le, gt uint64
			for _, v := range vals {
				if v <= p.y {
					le++
				} else {
					gt++
				}
			}
			want := le
			if hra {
				want = gt
			}
			if p.r != want {
				t.Errorf("hra=%v: probe %g has rank %d, counting gives %d", hra, p.y, p.r, want)
			}
			if got := fromAccurateEnd(le, uint64(len(vals)), hra); got != want {
				t.Errorf("hra=%v: fromAccurateEnd(%d) = %d, want %d", hra, le, got, want)
			}
		}
	}
}

func TestRelErrAndRankErrEps(t *testing.T) {
	if got := relErr(105, 100, 0.01); math.Abs(got-5) > 1e-12 {
		t.Errorf("relErr(105, 100, 0.01) = %g, want 5", got)
	}
	if got := relErr(99, 100, 0.02); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("relErr(99, 100, 0.02) = %g, want 0.5", got)
	}
	if got := fromAccurateEnd(12, 10, true); got != 0 {
		t.Errorf("fromAccurateEnd clamps to 0, got %d", got)
	}
	// rank_err_eps is the mean over every probe of every pass.
	ps := []passStats{
		{rankErrs: []float64{0.5, 1.5}, ingest: []span{{cpu: time.Second}}, items: 1},
		{rankErrs: []float64{1}, ingest: []span{{cpu: time.Second}}, items: 1},
	}
	if got := endToEnd(ps)["rank_err_eps"].Value; math.Abs(got-1) > 1e-12 {
		t.Errorf("rank_err_eps = %g, want 1", got)
	}
}

func TestRankErrsCountsFailures(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	exact := func(y float64) (uint64, error) { // #{x ≤ y}
		return uint64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > y })), nil
	}
	r := &run{}
	errs := rankErrs(r, sorted, true, 0.01, exact)
	if len(errs) == 0 || r.failed != 0 || r.attempt != int64(2*len(errs)) {
		t.Fatalf("exact ranks: %d probes, %d attempted, %d failed", len(errs), r.attempt, r.failed)
	}
	for _, e := range errs {
		if e != 0 {
			t.Fatalf("exact rank has error %g", e)
		}
	}
	// Ten items too few from the top breaks ε = 1% at every rank < 1000.
	off := func(y float64) (uint64, error) {
		n, _ := exact(y)
		return n + 10, nil
	}
	r = &run{}
	rankErrs(r, sorted, true, 0.01, off)
	if r.failed == 0 {
		t.Error("ranks off by 10 items were not counted failed")
	}
}

func TestQuantileOK(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	cases := []struct {
		q, phi float64
		hra    bool
		want   bool
	}{
		{50, 0.5, false, true},
		{52, 0.5, false, true},  // 2 items off, within 0.01·52 + 2
		{60, 0.5, false, false}, // 10 items off
		{99, 0.99, true, true},  // 2 items ≥ 99, target 2
		{90, 0.99, true, false}, // 11 items ≥ 90
	}
	for _, c := range cases {
		if got := quantileOK(sorted, c.q, c.phi, c.hra, 0.01); got != c.want {
			t.Errorf("quantileOK(q=%g, phi=%g, hra=%v) = %v, want %v", c.q, c.phi, c.hra, got, c.want)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := newKeyedInput(3, 100, 1000, 1.1), newKeyedInput(3, 100, 1000, 1.1)
	c := newKeyedInput(4, 100, 1000, 1.1)
	if !slices.Equal(a.vals, b.vals) || !slices.Equal(a.idx, b.idx) {
		t.Error("the same seed gave different inputs")
	}
	if slices.Equal(a.vals, c.vals) {
		t.Error("different seeds gave the same inputs")
	}
	for i, k := range a.idx {
		if a.keys[i] != a.names[k] || !(a.vals[i] > 0) {
			t.Fatalf("item %d: key %q for index %d, value %g", i, a.keys[i], k, a.vals[i])
		}
	}
}
