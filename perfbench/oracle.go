package main

import (
	"math"
	"sort"
)

// The oracle answers from the benchmark's own sort of the generated
// inputs, never from the library.
//
// Ranks are counted from a sketch's accurate end: for a low-rank-accuracy
// sketch R(y) = #{x ≤ y}, for a high-rank-accuracy one R(y) = #{x > y}.
// Probes sit strictly between two neighbouring distinct input values, so
// "≤" and "<" (and "≥" and ">") count the same items and the comparison
// does not depend on a rank convention.

// probe is a point y with its exact rank from the accurate end.
type probe struct {
	y float64
	r uint64
}

// probeFracs are the accurate-end rank fractions probed on each sorted
// input: 43 steps of 2^¼ from 0.05% to 72%, dense near the accurate end,
// where relative error is strictest.
var probeFracs = func() []float64 {
	var fs []float64
	for f := 0.0005; f < 0.75; f *= math.Sqrt(math.Sqrt2) {
		fs = append(fs, f)
	}
	return fs
}()

// makeProbes places one probe at each fraction of sorted (ascending) that
// lands strictly inside the input, skipping ties.
func makeProbes(sorted []float64, hra bool, fracs []float64) []probe {
	n := len(sorted)
	var out []probe
	var last uint64
	for _, f := range fracs {
		r := uint64(math.Ceil(f * float64(n)))
		if r == 0 || r >= uint64(n) || r == last {
			continue
		}
		last = r
		// Exactly r items lie on the accurate side of the gap between
		// sorted[i-1] and sorted[i].
		i := int(r)
		if hra {
			i = n - int(r)
		}
		lo, hi := sorted[i-1], sorted[i]
		if !(lo < hi) {
			continue
		}
		out = append(out, probe{y: lo + (hi-lo)/2, r: r})
	}
	return out
}

// fromAccurateEnd turns an inclusive rank estimate (#{x ≤ y}) of a sketch
// over n items into a rank from the sketch's accurate end.
func fromAccurateEnd(inclusive, n uint64, hra bool) uint64 {
	if hra {
		return n - min(inclusive, n)
	}
	return inclusive
}

// relErr is |est − exact| / (ε·exact): the error in units of the paper's
// guarantee, so a value above 1 breaks |R̂(y) − R(y)| ≤ ε·R(y).
func relErr(est, exact uint64, eps float64) float64 {
	return math.Abs(float64(est)-float64(exact)) / (eps * float64(exact))
}

// quantileOK reports whether q is an ε-accurate answer for phi on sorted:
// its exact rank from the accurate end is within ε of the target rank,
// plus two items for the rank convention at either end.
func quantileOK(sorted []float64, q, phi float64, hra bool, eps float64) bool {
	n := len(sorted)
	if n == 0 {
		return false
	}
	target := math.Max(1, math.Ceil(phi*float64(n)))
	var r float64
	if hra {
		target = float64(n) - target + 1
		r = float64(n - sort.SearchFloat64s(sorted, q)) // #{x ≥ q}
	} else {
		r = float64(sort.Search(n, func(i int) bool { return sorted[i] > q })) // #{x ≤ q}
	}
	return math.Abs(r-target) <= eps*math.Max(r, target)+2
}

// rankErrs probes sorted at probeFracs through rank (an inclusive rank
// query) and returns the relative errors, counting a probe failed when it
// is beyond ε·R(y).
func rankErrs(r *run, sorted []float64, hra bool, eps float64, rank func(y float64) (uint64, error)) []float64 {
	var out []float64
	n := uint64(len(sorted))
	for _, p := range makeProbes(sorted, hra, probeFracs) {
		est, err := rank(p.y)
		if !r.noErr(err, "Rank") {
			continue
		}
		e := relErr(fromAccurateEnd(est, n, hra), p.r, eps)
		r.check(e <= 1, "rank at %g: estimate %d from the accurate end, exact %d", p.y, fromAccurateEnd(est, n, hra), p.r)
		out = append(out, e)
	}
	return out
}
