package main

import (
	"fmt"
	"math"
	"sort"
)

// The benchmark makes its own inputs, so that a change to the library's
// generators never changes what is measured.

// source is splitmix64: one word of state, the same stream for the same
// seed on every platform and Go version.
type source struct{ state uint64 }

func newSource(seed, stream uint64) *source {
	s := &source{state: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	s.uint64()
	return s
}

func (s *source) uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in (0, 1).
func (s *source) float64() float64 {
	return (float64(s.uint64()>>11) + 0.5) / (1 << 53)
}

// norm returns a standard normal value (Box–Muller, one of the pair).
func (s *source) norm() float64 {
	return math.Sqrt(-2*math.Log(s.float64())) * math.Cos(2*math.Pi*s.float64())
}

// latency draws a response time in milliseconds: a log-normal body with
// median scale and σ = 0.4, mixed with a 2% Pareto tail from 5·scale with
// shape 1.2 — the paper's motivating shape, where p99 and beyond matter.
func (s *source) latency(scale float64) float64 {
	if s.float64() < 0.02 {
		return 5 * scale / math.Pow(s.float64(), 1/1.2)
	}
	return scale * math.Exp(0.4*s.norm())
}

// zipf draws key indices in [0, n) with P(i) ∝ (i+1)^−s by inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *source) int {
	i := sort.SearchFloat64s(z.cdf, r.float64())
	return min(i, len(z.cdf)-1)
}

// keyedInput is a stream of (key, value) pairs over a Zipf key population.
type keyedInput struct {
	names []string  // key index → name
	keys  []string  // per item: key name, shared with names
	idx   []int32   // per item: key index
	vals  []float64 // per item: latency in ms
}

// newKeyedInput draws n pairs over nkeys endpoint keys with Zipf exponent
// zs. Each endpoint has its own median latency, 20–125 ms.
func newKeyedInput(seed uint64, nkeys, n int, zs float64) *keyedInput {
	in := &keyedInput{
		names: make([]string, nkeys),
		keys:  make([]string, n),
		idx:   make([]int32, n),
		vals:  make([]float64, n),
	}
	scale := make([]float64, nkeys)
	for i := range in.names {
		in.names[i] = fmt.Sprintf("svc-%02d/GET /api/v1/endpoint-%05d", i%37, i)
		scale[i] = 20 + 15*float64(i%8)
	}
	z := newZipf(nkeys, zs)
	r := newSource(seed, 1)
	for i := range in.vals {
		k := z.draw(r)
		in.idx[i] = int32(k)
		in.keys[i] = in.names[k]
		in.vals[i] = r.latency(scale[k])
	}
	return in
}

// newStream draws n latency values with a 50 ms median.
func newStream(seed uint64, n int) []float64 {
	r := newSource(seed, 2)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.latency(50)
	}
	return out
}
