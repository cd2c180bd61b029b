package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"req"
)

// window_scrape: a collector flushing (endpoint, latency) pairs into a
// WindowedRegistryFloat64 with high-rank accuracy under a synthetic clock,
// with frequent dashboard scrapes over the trailing window. Each flush also
// goes to a minute rollup, a RegistryFloat64 the collector saves durably
// when its slot closes and then resets: the window lives in memory, closed
// minutes go to disk.
const (
	windowKeys        = 1500
	windowSlots       = 6
	windowEpochs      = 9 // slot periods per pass: the ring turns over
	windowEpochItems  = 1 << 16
	windowScrapeEvery = 4 // flushes between dashboard scrapes
	windowOpens       = 2 // restores per rollup checkpoint
	windowRankKeys    = 12
)

const slotDur = time.Minute

type windowScrape struct {
	seed  uint64
	live  [][]float64 // exact values per key over the final window, sorted
	tally [][]uint64  // items per epoch per key
	dash  []int
}

func newWindowScrape(seed uint64) workload { return &windowScrape{seed: seed} }

// windowCount is key k's count over the window ending at epoch e.
func (w *windowScrape) windowCount(e, k int) uint64 {
	var n uint64
	for j := max(0, e-windowSlots+1); j <= e; j++ {
		n += w.tally[j][k]
	}
	return n
}

func (w *windowScrape) pass(r *run) passStats {
	var st passStats
	items := windowEpochs * windowEpochItems
	t := now()
	in := newKeyedInput(w.seed, windowKeys, items, keyedZipf)
	st.setup = since(t)
	if w.tally == nil {
		w.prepare(in)
	}
	heap0 := heapAlloc()
	t = now()
	sp := r.tr.begin("setup")
	var clock int64
	win, err := req.NewWindowedRegistryFloat64(req.WithHighRankAccuracy(), req.WithSeed(w.seed),
		req.WithWindow(windowSlots, slotDur), req.WithClock(func() int64 { return clock }))
	rollup, err2 := req.NewRegistryFloat64(req.WithHighRankAccuracy(), req.WithSeed(w.seed+1))
	r.tr.end(sp, 0)
	st.setup = st.setup.add(since(t))
	if !r.noErr(err, "NewWindowedRegistryFloat64") || !r.noErr(err2, "NewRegistryFloat64") {
		return st
	}

	// running[k] is key k's item count in the current window so far: the
	// dashboard shows keys with items in the window.
	running := make([]uint64, windowKeys)
	var dst []float64
	seg := keyedBatch * windowScrapeEvery
	c0, g0 := gcStats()
	for e := 0; e < windowEpochs; e++ {
		if e >= windowSlots {
			for k := range running {
				running[k] -= w.tally[e-windowSlots][k]
			}
		}
		for lo := e * windowEpochItems; lo < (e+1)*windowEpochItems; lo += seg {
			hi := lo + seg
			clock = int64(e)*int64(slotDur) + int64(lo-e*windowEpochItems)
			t := now()
			sp := r.tr.begin("ingest")
			for b := lo; b < hi; b += keyedBatch {
				s := r.tr.begin("window.update")
				win.UpdatePairs(in.keys[b:b+keyedBatch], in.vals[b:b+keyedBatch])
				r.tr.end(s, keyedBatch)
				s = r.tr.begin("pairs.update")
				rollup.UpdatePairs(in.keys[b:b+keyedBatch], in.vals[b:b+keyedBatch])
				r.tr.end(s, keyedBatch)
				r.attempt += 2
			}
			r.tr.end(sp, 0)
			st.ingest = append(st.ingest, since(t))
			st.items += hi - lo
			if r.tr != nil {
				r.note("pairs.keys_per_batch", distinctPerBatch(in.idx[lo:hi], keyedBatch))
			}
			for _, k := range in.idx[lo:hi] {
				running[k]++
			}

			r.tr.setRound(len(st.scrapes))
			t = now()
			sp = r.tr.begin("scrape")
			for _, k := range w.dash {
				if running[k] == 0 {
					continue
				}
				q := r.tr.begin("window.quantiles")
				dst, err = win.QuantilesInto(in.names[k], dst, dashPhis)
				r.tr.end(q, 0)
				r.noErr(err, "windowed QuantilesInto")
				r.note("window.live_slots", float64(min(e+1, windowSlots)))
			}
			r.tr.end(sp, 0)
			st.scrapes = append(st.scrapes, since(t))
		}
		for k, name := range in.names {
			want := w.windowCount(e, k)
			r.check(win.Count(name) == want, "epoch %d: window count of %s %d, want %d", e, name, win.Count(name), want)
		}
		if e == windowEpochs-1 {
			c1, g1 := gcStats()
			st.gcCycles, st.gcCPU = c1-c0, g1-g0
			st.state = heapAlloc() - heap0
			runtime.KeepAlive(in)
			w.check(r, win, in.names, &st)
		}
		w.checkpoint(r, rollup, in.names, e, &st)
	}
	return st
}

// prepare tallies the input per epoch and sorts each key's values in the
// final window.
func (w *windowScrape) prepare(in *keyedInput) {
	w.tally = make([][]uint64, windowEpochs)
	for e := range w.tally {
		w.tally[e] = make([]uint64, windowKeys)
		for _, k := range in.idx[e*windowEpochItems : (e+1)*windowEpochItems] {
			w.tally[e][k]++
		}
	}
	first := (windowEpochs - windowSlots) * windowEpochItems
	w.live = group(in.idx[first:], in.vals[first:], windowKeys)
	w.dash = dashboardKeys(w.seed, windowKeys)
}

// check compares the final window with the exact window: the dashboard's
// answers and ranks at probes on the busiest keys, which have compacted.
func (w *windowScrape) check(r *run, win *req.WindowedRegistryFloat64, names []string, st *passStats) {
	for _, k := range w.dash {
		if len(w.live[k]) == 0 {
			continue
		}
		qs, err := win.QuantilesInto(names[k], nil, dashPhis)
		if !r.noErr(err, "final windowed QuantilesInto") {
			continue
		}
		for i, phi := range dashPhis {
			r.check(quantileOK(w.live[k], qs[i], phi, true, defaultEps),
				"window of %s p%g = %g is not within ε of the exact rank", names[k], phi*100, qs[i])
		}
	}
	busiest := make([]int, windowKeys)
	for k := range busiest {
		busiest[k] = k
	}
	sort.SliceStable(busiest, func(i, j int) bool { return len(w.live[busiest[i]]) > len(w.live[busiest[j]]) })
	for _, k := range busiest[:windowRankKeys] {
		st.rankErrs = append(st.rankErrs, rankErrs(r, w.live[k], true, defaultEps, func(y float64) (uint64, error) {
			return win.Rank(names[k], y)
		})...)
	}
}

// checkpoint saves the rollup of epoch e durably, restores it, checks every
// restored answer against the live rollup and its counts against the
// epoch's tally, and resets the rollup for the next epoch.
func (w *windowScrape) checkpoint(r *run, rollup *req.RegistryFloat64, names []string, e int, st *passStats) {
	dir := filepath.Join(r.dir, fmt.Sprintf("rollup-%d", e))
	defer os.RemoveAll(dir)
	live := liveAnswers(r, rollup, names, w.tally[e])
	saveRestore(r, rollup, dir, names[0], live, windowOpens, st)
	for k, n := range w.tally[e] {
		r.check(rollup.Count(names[k]) == n, "rollup count of %s %d, want %d", names[k], rollup.Count(names[k]), n)
	}
	rollup.Reset()
}
