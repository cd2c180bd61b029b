package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"req"
)

// keyed_flush: a collector flushing (endpoint, latency) pairs into a
// RegistryFloat64 with high-rank accuracy, a dashboard scrape every few
// flushes, then repeated durable checkpoints and restores.
const (
	keyedKeys        = 10000
	keyedZipf        = 1.1
	keyedItems       = 1 << 20
	keyedBatch       = 512 // pairs per UpdatePairs flush, as examples/slo
	keyedScrapeEvery = 16  // flushes between dashboard scrapes
	keyedSaves       = 3   // checkpoints per pass
	keyedOpens       = 3   // restores per checkpoint
	probeHot         = 8   // hottest keys on the dashboard
	probeCold        = 8   // cold keys on the dashboard, drawn from the seed
	defaultEps       = 0.01
)

// dashPhis are the ranks a dashboard scrape asks for.
var dashPhis = []float64{0.5, 0.9, 0.99, 0.999}

type keyedFlush struct {
	seed   uint64
	byKey  [][]float64 // exact values per key, sorted; built in the first pass
	counts []uint64
	dash   []int // dashboard keys
}

func newKeyedFlush(seed uint64) workload { return &keyedFlush{seed: seed} }

// dashboardKeys picks the hottest keys and cold keys from the tail.
func dashboardKeys(seed uint64, nkeys int) []int {
	keys := make([]int, 0, probeHot+probeCold)
	for i := 0; i < probeHot; i++ {
		keys = append(keys, i)
	}
	r := newSource(seed, 3)
	for len(keys) < probeHot+probeCold {
		keys = append(keys, nkeys/10+int(r.uint64()%uint64(nkeys-nkeys/10)))
	}
	return keys
}

// group sorts the values of each key index.
func group(idx []int32, vals []float64, nkeys int) [][]float64 {
	by := make([][]float64, nkeys)
	for i, k := range idx {
		by[k] = append(by[k], vals[i])
	}
	for _, vs := range by {
		sort.Float64s(vs)
	}
	return by
}

func (w *keyedFlush) pass(r *run) passStats {
	var st passStats
	t := now()
	in := newKeyedInput(w.seed, keyedKeys, keyedItems, keyedZipf)
	st.setup = since(t)
	if w.byKey == nil {
		w.byKey = group(in.idx, in.vals, keyedKeys)
		w.counts = make([]uint64, keyedKeys)
		for k, vs := range w.byKey {
			w.counts[k] = uint64(len(vs))
		}
		w.dash = dashboardKeys(w.seed, keyedKeys)
	}
	heap0 := heapAlloc()
	t = now()
	sp := r.tr.begin("setup")
	reg, err := req.NewRegistryFloat64(req.WithHighRankAccuracy(), req.WithSeed(w.seed))
	r.tr.end(sp, 0)
	st.setup = st.setup.add(since(t))
	if !r.noErr(err, "NewRegistryFloat64") {
		return st
	}

	// Ingest, scraping the dashboard every keyedScrapeEvery flushes. The
	// dashboard shows the keys seen so far.
	seen := make([]bool, keyedKeys)
	var dst []float64
	c0, g0 := gcStats()
	for lo := 0; lo < keyedItems; lo += keyedBatch * keyedScrapeEvery {
		hi := min(lo+keyedBatch*keyedScrapeEvery, keyedItems)
		seg := now()
		sp := r.tr.begin("ingest")
		for b := lo; b < hi; b += keyedBatch {
			e := min(b+keyedBatch, hi)
			s := r.tr.begin("pairs.update")
			reg.UpdatePairs(in.keys[b:e], in.vals[b:e])
			r.tr.end(s, e-b)
			r.attempt++
		}
		r.tr.end(sp, 0)
		st.ingest = append(st.ingest, since(seg))
		st.items += hi - lo
		if r.tr != nil {
			r.note("pairs.keys_per_batch", distinctPerBatch(in.idx[lo:hi], keyedBatch))
		}
		for _, k := range in.idx[lo:hi] {
			seen[k] = true
		}

		r.tr.setRound(len(st.scrapes))
		round := now()
		sp = r.tr.begin("scrape")
		for _, k := range w.dash {
			if !seen[k] {
				continue
			}
			q := r.tr.begin("registry.quantiles")
			dst, err = reg.QuantilesInto(in.names[k], dst, dashPhis)
			r.tr.end(q, 0)
			r.noErr(err, "registry QuantilesInto")
		}
		r.tr.end(sp, 0)
		st.scrapes = append(st.scrapes, since(round))
	}
	c1, g1 := gcStats()
	st.gcCycles, st.gcCPU = c1-c0, g1-g0
	st.state = heapAlloc() - heap0
	runtime.KeepAlive(in)
	w.check(r, reg, in.names, &st)
	w.checkpoint(r, reg, in.names, &st)
	return st
}

// distinctPerBatch is the mean number of distinct keys per batch of idx.
func distinctPerBatch(idx []int32, batch int) float64 {
	seen := map[int32]bool{}
	total, batches := 0, 0
	for b := 0; b < len(idx); b += batch {
		clear(seen)
		for _, k := range idx[b:min(b+batch, len(idx))] {
			seen[k] = true
		}
		total += len(seen)
		batches++
	}
	return float64(total) / float64(batches)
}

// check compares the registry with the exact tallies: every key's count,
// the dashboard's answers, and ranks at probes on every compacted key.
func (w *keyedFlush) check(r *run, reg *req.RegistryFloat64, names []string, st *passStats) {
	distinct := 0
	for k, n := range w.counts {
		if n == 0 {
			continue
		}
		distinct++
		r.check(reg.Count(names[k]) == n, "count of %s: %d, want %d", names[k], reg.Count(names[k]), n)
	}
	r.check(reg.Len() == distinct, "registry holds %d keys, want %d", reg.Len(), distinct)
	for _, k := range w.dash {
		qs, err := reg.QuantilesInto(names[k], nil, dashPhis)
		if !r.noErr(err, "final QuantilesInto") {
			continue
		}
		for i, phi := range dashPhis {
			r.check(quantileOK(w.byKey[k], qs[i], phi, true, defaultEps),
				"%s p%g = %g is not within ε of the exact rank", names[k], phi*100, qs[i])
		}
	}
	for k, vs := range w.byKey {
		if len(vs) < 100 {
			continue
		}
		snap, err := reg.Snapshot(names[k])
		if !r.noErr(err, "registry Snapshot") || snap.ItemsRetained() == int(snap.Count()) {
			continue // uncompacted keys answer exactly
		}
		st.rankErrs = append(st.rankErrs, rankErrs(r, w.byKey[k], true, defaultEps, func(y float64) (uint64, error) {
			return reg.Rank(names[k], y)
		})...)
	}
}

// checkpoint saves the registry durably and restores it, several times;
// every restored answer must equal the live registry's.
func (w *keyedFlush) checkpoint(r *run, reg *req.RegistryFloat64, names []string, st *passStats) {
	dir := filepath.Join(r.dir, "keyed")
	defer os.RemoveAll(dir)
	live := liveAnswers(r, reg, names, w.counts)
	for i := 0; i < keyedSaves; i++ {
		if !saveRestore(r, reg, dir, names[0], live, keyedOpens, st) {
			return
		}
	}
}

// saveRestore saves reg durably as the next generation in dir, restores
// it opens times up to the first answered quantile of the hot key, and
// compares every restored key with the live answers. It reports whether
// the save and the opens succeeded.
func saveRestore(r *run, reg *req.RegistryFloat64, dir, hot string, live map[string][]float64, opens int, st *passStats) bool {
	if r.tr != nil {
		s := r.tr.begin("persist.encode")
		_, err := reg.MarshalBinary()
		r.tr.end(s, 0)
		r.noErr(err, "registry MarshalBinary")
	}
	// A GC cycle that overlaps a timed restore adds its workers' CPU time
	// to the restore; start from a collected heap.
	runtime.GC()
	t := now()
	s := r.tr.begin("persist.save")
	gen, err := reg.SaveRegistry(dir)
	r.tr.end(s, 0)
	st.saves = append(st.saves, since(t))
	if !r.noErr(err, "SaveRegistry") {
		return false
	}
	if gen == 1 { // one generation: the bytes of one checkpoint
		st.serialized = dirBytes(dir)
		r.note("persist.bytes", float64(st.serialized))
	}
	var snap *req.RegistrySnapshotFloat64
	for j := 0; j < opens; j++ {
		t := now()
		s := r.tr.begin("persist.open")
		snap, err = req.OpenRegistryFloat64(dir)
		r.tr.end(s, 0)
		if !r.noErr(err, "OpenRegistryFloat64") {
			return false
		}
		s = r.tr.begin("persist.first_query")
		sk, ok := snap.Get(hot)
		var q float64
		if ok {
			q, err = sk.Quantile(0.99)
		}
		r.tr.end(s, 0)
		st.restores = append(st.restores, since(t))
		r.check(ok, "restored registry lacks %s", hot)
		r.noErr(err, "restored Quantile")
		r.check(q == live[hot][2], "restored %s p99 %g, live %g", hot, q, live[hot][2])
	}
	checkRestored(r, snap, live)
	return true
}

// liveAnswers records every key's count and dashboard answers.
func liveAnswers(r *run, reg *req.RegistryFloat64, names []string, counts []uint64) map[string][]float64 {
	live := map[string][]float64{}
	for k, n := range counts {
		if n == 0 {
			continue
		}
		qs, err := reg.QuantilesInto(names[k], nil, dashPhis)
		if r.noErr(err, "live QuantilesInto") {
			live[names[k]] = append(qs, float64(reg.Count(names[k])))
		}
	}
	return live
}

// checkRestored compares every restored key with the live answers.
func checkRestored(r *run, snap *req.RegistrySnapshotFloat64, live map[string][]float64) {
	r.check(snap.Len() == len(live), "restored %d keys, want %d", snap.Len(), len(live))
	var dst []float64
	for key, want := range live {
		sk, ok := snap.Get(key)
		if !r.check(ok, "restored registry lacks %s", key) {
			continue
		}
		var err error
		dst, err = sk.QuantilesInto(dst, dashPhis)
		if !r.noErr(err, "restored QuantilesInto") {
			continue
		}
		same := float64(sk.Count()) == want[len(dashPhis)]
		for i := range dashPhis {
			same = same && dst[i] == want[i]
		}
		r.check(same, "restored %s answers %v (count %d), live %v", key, dst, sk.Count(), want)
	}
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
