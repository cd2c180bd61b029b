package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"req"
)

// stream_fanin: producer sketches in the library's default configuration
// take a latency stream in blocks, and an aggregator regularly collects
// their serialized blobs, decodes and merges them into a fresh aggregate,
// queries it, and checkpoints the last aggregate durably.
const (
	faninProducers  = 16
	faninBlock      = 4096 // items per UpdateBatch
	faninItems      = 1 << 22
	faninRoundEvery = 64 // blocks between aggregation rounds
	faninSaves      = 9  // checkpoints per pass
	faninOpens      = 2  // restores per checkpoint
)

type streamFanin struct {
	seed     uint64
	sorted   []float64   // the whole stream, sorted; built in the first pass
	produced [][]float64 // each producer's items, sorted
}

func newStreamFanin(seed uint64) workload { return &streamFanin{seed: seed} }

// aggPhis are the ranks each fan-in round asks the aggregate for.
var aggPhis = []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999}

func (w *streamFanin) pass(r *run) passStats {
	var st passStats
	t := now()
	stream := newStream(w.seed, faninItems)
	st.setup = since(t)
	if w.sorted == nil {
		w.sorted = slices.Clone(stream)
		slices.Sort(w.sorted)
		w.produced = make([][]float64, faninProducers)
		for b := 0; b < faninItems/faninBlock; b++ {
			i := b % faninProducers
			w.produced[i] = append(w.produced[i], stream[b*faninBlock:(b+1)*faninBlock]...)
		}
		for _, vs := range w.produced {
			slices.Sort(vs)
		}
	}
	heap0 := heapAlloc()
	t = now()
	sp := r.tr.begin("setup")
	producers := make([]*req.Float64, faninProducers)
	var err error
	for i := 0; i < len(producers) && err == nil; i++ {
		producers[i], err = req.NewFloat64(req.WithSeed(w.seed + uint64(i)))
	}
	r.tr.end(sp, 0)
	st.setup = st.setup.add(since(t))
	if !r.noErr(err, "NewFloat64") {
		return st
	}

	var agg *req.Float64
	var dst []float64
	blobs := make([][]byte, faninProducers)
	decoded := make([]*req.Float64, faninProducers)
	blocks := faninItems / faninBlock
	c0, g0 := gcStats()
	for lo := 0; lo < blocks; lo += faninRoundEvery {
		hi := min(lo+faninRoundEvery, blocks)
		seg := now()
		sp := r.tr.begin("ingest")
		for b := lo; b < hi; b++ {
			s := r.tr.begin("sketch.update")
			producers[b%faninProducers].UpdateBatch(stream[b*faninBlock : (b+1)*faninBlock])
			r.tr.end(s, faninBlock)
			r.attempt++
		}
		r.tr.end(sp, 0)
		st.ingest = append(st.ingest, since(seg))
		st.items += (hi - lo) * faninBlock

		r.tr.setRound(len(st.scrapes))
		round := now()
		sp = r.tr.begin("scrape")
		agg, err = req.NewFloat64(req.WithSeed(w.seed + faninProducers))
		r.noErr(err, "NewFloat64")
		st.serialized = 0
		for i, p := range producers {
			s := r.tr.begin("serde.encode")
			blobs[i], err = p.MarshalBinary()
			r.tr.end(s, 0)
			r.noErr(err, "producer MarshalBinary")
			st.serialized += int64(len(blobs[i]))
			s = r.tr.begin("serde.decode")
			decoded[i], err = req.DecodeFloat64(blobs[i])
			r.tr.end(s, 0)
			if !r.noErr(err, "DecodeFloat64") {
				continue
			}
			s = r.tr.begin("merge")
			err = agg.Merge(decoded[i])
			r.tr.end(s, 0)
			r.noErr(err, "aggregate Merge")
		}
		s := r.tr.begin("sketch.quantiles")
		dst, err = agg.QuantilesInto(dst, aggPhis)
		r.tr.end(s, 0)
		r.noErr(err, "aggregate QuantilesInto")
		r.tr.end(sp, 0)
		st.scrapes = append(st.scrapes, since(round))

		// Every decoded producer answers as its source; the aggregate
		// holds every item dealt so far.
		for i, p := range producers {
			if decoded[i] != nil {
				r.check(sameAnswers(p, decoded[i]), "decoded producer %d answers differently from its source", i)
			}
		}
		r.check(agg.Count() == uint64(hi*faninBlock), "aggregate count %d, want %d", agg.Count(), hi*faninBlock)
	}
	c1, g1 := gcStats()
	st.gcCycles, st.gcCPU = c1-c0, g1-g0
	st.state = heapAlloc() - heap0
	runtime.KeepAlive(stream)
	if r.tr != nil {
		r.note("sketch.retained_items", float64(agg.ItemsRetained()))
		r.note("sketch.levels", float64(agg.NumLevels()))
	}

	// The last aggregate covers the whole stream: check it, and every
	// producer, against the exact sort.
	for i, phi := range aggPhis {
		r.check(quantileOK(w.sorted, dst[i], phi, false, defaultEps), "aggregate q(%g) = %g is not within ε of the exact rank", phi, dst[i])
	}
	st.rankErrs = rankErrs(r, w.sorted, false, defaultEps, func(y float64) (uint64, error) {
		return agg.Rank(y), nil
	})
	for i, p := range producers {
		st.rankErrs = append(st.rankErrs, rankErrs(r, w.produced[i], false, defaultEps, func(y float64) (uint64, error) {
			return p.Rank(y), nil
		})...)
	}
	w.checkpoint(r, agg, &st)
	return st
}

// sameAnswers reports whether two sketches give identical counts and
// quantiles. It queries a clone of a, so that a's state stays as ingest
// left it.
func sameAnswers(a, b *req.Float64) bool {
	qa, errA := a.Clone().Quantiles(aggPhis)
	qb, errB := b.Quantiles(aggPhis)
	return errA == nil && errB == nil && a.Count() == b.Count() && slices.Equal(qa, qb)
}

// checkpoint saves the aggregate durably and maps it back, several times;
// every restored answer must equal the live aggregate's.
func (w *streamFanin) checkpoint(r *run, agg *req.Float64, st *passStats) {
	dir := filepath.Join(r.dir, "fanin")
	defer os.RemoveAll(dir)
	live, err := agg.Quantiles(aggPhis)
	if !r.noErr(err, "aggregate Quantiles") {
		return
	}
	if r.tr != nil {
		s := r.tr.begin("persist.encode")
		blob, err := agg.MarshalBinary()
		r.tr.end(s, 0)
		r.noErr(err, "aggregate MarshalBinary")
		r.note("persist.bytes", float64(len(blob)))
	}
	for i := 0; i < faninSaves; i++ {
		t := now()
		s := r.tr.begin("persist.save")
		_, err := agg.SaveSnapshot(dir)
		r.tr.end(s, 0)
		st.saves = append(st.saves, since(t))
		if !r.noErr(err, "SaveSnapshot") {
			return
		}
		for j := 0; j < faninOpens; j++ {
			t := now()
			s := r.tr.begin("persist.open")
			m, err := req.OpenSnapshotFloat64(dir)
			r.tr.end(s, 0)
			if !r.noErr(err, "OpenSnapshotFloat64") {
				return
			}
			s = r.tr.begin("persist.first_query")
			q, err := m.Quantile(aggPhis[0])
			r.tr.end(s, 0)
			st.restores = append(st.restores, since(t))
			r.noErr(err, "restored Quantile")
			got, err := m.Quantiles(aggPhis)
			r.check(err == nil && q == live[0] && slices.Equal(got, live) && m.Count() == agg.Count(),
				"restored aggregate answers %v (count %d), live %v (count %d)", got, m.Count(), live, agg.Count())
			r.noErr(m.Close(), "MappedSnapshot Close")
		}
	}
}
