// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed through the library's public API on a single
// goroutine, checks every answer against the benchmark's own exact
// computation, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, taken from spans around every call into the
// library, plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload runs one pass: set-up, ingest with scrapes, checks, checkpoint
// and restore, on the same inputs every pass.
type workload interface {
	pass(r *run) passStats
}

var workloads = map[string]func(seed uint64) workload{
	"keyed_flush":   newKeyedFlush,
	"window_scrape": newWindowScrape,
	"stream_fanin":  newStreamFanin,
}

// minPasses is the least number of passes a run makes, however short
// --seconds is, so that every median has at least three values.
const minPasses = 3

// run carries what one benchmark run shares across its passes.
type run struct {
	dir     string  // scratch directory for checkpoints
	tr      *tracer // nil in untraced passes
	layer   map[string][]float64
	pass    int
	attempt int64
	failed  int64
}

// check counts one verified operation; ok false counts it failed.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempt++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL pass %d: %s\n", r.pass, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// noErr counts one library call; a returned error counts it failed.
func (r *run) noErr(err error, what string) bool {
	return r.check(err == nil, "%s: %v", what, err)
}

// note records a per-layer value measured in a traced pass.
func (r *run) note(name string, v float64) {
	if r.tr != nil {
		r.layer[name] = append(r.layer[name], v)
	}
}

// passStats is what one pass measured.
type passStats struct {
	setup      span
	ingest     []span // one per ingest segment between rounds
	items      int
	scrapes    []span // one per dashboard or fan-in round
	saves      []span
	restores   []span
	serialized int64 // bytes that leave the process per checkpoint or round
	state      int64 // heap bytes held by the containers after ingest
	rankErrs   []float64
	gcCycles   uint64  // GC cycles during ingest and scrapes
	gcCPU      float64 // GC CPU seconds during ingest and scrapes
}

// spanTimes lists the times of spans on clock c.
func spanTimes(ss []span, c clock) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = c(s)
	}
	return out
}

func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: keyed_flush, window_scrape or stream_fanin")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long to keep starting passes")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from traced passes")
	workdir := flag.String("workdir", ".bench_build", "directory for checkpoints and traces")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seed, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	w := mk(*seed)
	r := &run{dir: dir, layer: map[string][]float64{}}
	tr := newTracer(start)
	var plain, traced []passStats
	for p := 0; p < minPasses+*trace || time.Since(start).Seconds() < *seconds; p++ {
		r.pass, r.tr = p, nil
		if *trace == 1 && p%2 == 1 {
			r.tr = tr
		}
		runtime.GC()
		t := time.Now()
		st := w.pass(r)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.2f s, setup %.3f s, ingest %.3f Mitems/s, %d rounds, scrape median %.3f ms (CPU)\n",
			p, time.Since(t).Seconds(), st.setup.cpu.Seconds(), float64(st.items)/sum(spanTimes(st.ingest, cpuS))/1e6, len(st.scrapes), median(spanTimes(st.scrapes, cpuS))*1e3)
		if r.tr != nil {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}

	e2e := endToEnd(plain)
	printTable(os.Stdout, *name, plain)
	metrics := e2e
	if *trace == 1 {
		layers := tr.summary()
		over := overhead(e2e, endToEnd(traced))
		metrics = perLayer(layers, r.layer, traced, over)
		metrics["trace.spans"] = metric{float64(len(tr.spans)), "count"}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := tr.write(path, layers, over); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a failed operation leaves a metric without samples,
			// and failures are counted; JSON has no NaN.
			metrics[k] = metric{0, m.Unit}
		}
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempt,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Every pass repeats the same work on the same inputs, and the library is
// seeded. Each timed metric is first reduced within a pass, over a number
// of units (ingest segments, scrape rounds, saves, restores) that is the
// same in every pass, and then to its median over the passes. A reduction
// over all passes at once, such as the best unit of the run, would move
// with the number of passes that fit in --seconds, and so with the speed
// of the machine.

// clock picks one of a span's two times, in seconds.
type clock func(span) float64

func cpuS(s span) float64  { return s.cpu.Seconds() }
func wallS(s span) float64 { return s.wall.Seconds() }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timed reduces the passes' timed metrics on clock c: per pass the set-up,
// the ingest rate, the median scrape round, the best save and the median
// restore; then the median of each over the passes.
func timed(ps []passStats, c clock) (setup, ingest, scrape, save, restore float64) {
	var su, in, sc, sv, rs []float64
	for _, p := range ps {
		su = append(su, c(p.setup))
		in = append(in, float64(p.items)/sum(spanTimes(p.ingest, c))/1e6)
		sc = append(sc, median(spanTimes(p.scrapes, c))*1e3)
		sv = append(sv, minOf(spanTimes(p.saves, c)))
		rs = append(rs, median(spanTimes(p.restores, c))*1e3)
	}
	return median(su), median(in), median(sc), median(sv), median(rs)
}

// endToEnd reduces the passes to the end-to-end metrics. Times are process
// CPU time, except checkpoint_s: a durable save waits on the disk, so its
// cost is wall time.
func endToEnd(ps []passStats) map[string]metric {
	var ser, state, errs []float64
	for _, p := range ps {
		ser = append(ser, float64(p.serialized)/1e6)
		state = append(state, float64(p.state)/1e6)
		errs = append(errs, p.rankErrs...)
	}
	setup, ingest, scrape, _, restore := timed(ps, cpuS)
	_, _, _, save, _ := timed(ps, wallS)
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"ingest_mitems_s": {ingest, "Mitems/s"},
		"scrape_ms":       {scrape, "ms"},
		"checkpoint_s":    {save, "s"},
		"restore_ms":      {restore, "ms"},
		"serialized_mb":   {median(ser), "MB"},
		"state_mb":        {median(state), "MB"},
		"rank_err_eps":    {sum(errs) / float64(len(errs)), "eps"},
	}
}

// printTable prints every timed metric on both clocks, for reading; the
// JSON line that follows is the result.
func printTable(f *os.File, name string, ps []passStats) {
	var cpu, wall [5]float64
	cpu[0], cpu[1], cpu[2], cpu[3], cpu[4] = timed(ps, cpuS)
	wall[0], wall[1], wall[2], wall[3], wall[4] = timed(ps, wallS)
	fmt.Fprintf(f, "%s: %d passes\n  %-16s %12s %12s\n", name, len(ps), "metric", "CPU", "wall")
	for i, m := range []string{"setup_s", "ingest_mitems_s", "scrape_ms", "checkpoint_s", "restore_ms"} {
		fmt.Fprintf(f, "  %-16s %12.6g %12.6g\n", m, cpu[i], wall[i])
	}
}

// overhead is, per timed end-to-end metric, how much worse the traced
// passes read than the untraced ones, in percent.
func overhead(plain, traced map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range []string{"setup_s", "scrape_ms", "checkpoint_s", "restore_ms"} {
		out[m] = (traced[m].Value/plain[m].Value - 1) * 100
	}
	out["ingest_mitems_s"] = (plain["ingest_mitems_s"].Value/traced["ingest_mitems_s"].Value - 1) * 100
	return out
}

// perLayer derives the per-layer metrics from the traced passes' spans and
// notes. A layer the workload does not call reads 0.
func perLayer(layers map[string]*layerSum, notes map[string][]float64, ps []passStats, over map[string]float64) map[string]metric {
	perItem := func(name string) float64 {
		if l := layers[name]; l != nil && l.Items > 0 {
			return l.CPUS * 1e9 / float64(l.Items)
		}
		return 0
	}
	perCall := func(name string, unit float64) float64 {
		if l := layers[name]; l != nil && l.Calls > 0 {
			return l.CPUS / float64(l.Calls) / unit
		}
		return 0
	}
	wallPerCall := func(name string, unit float64) float64 {
		if l := layers[name]; l != nil && l.Calls > 0 {
			return l.WallS / float64(l.Calls) / unit
		}
		return 0
	}
	note := func(name string) float64 {
		if len(notes[name]) == 0 {
			return 0
		}
		return sum(notes[name]) / float64(len(notes[name]))
	}
	wait := func(f func(p passStats) span) float64 {
		var w []float64
		for _, p := range ps {
			s := f(p)
			w = append(w, (s.wall - s.cpu).Seconds())
		}
		return median(w)
	}
	total := func(ss []span) span {
		var t span
		for _, s := range ss {
			t = t.add(s)
		}
		return t
	}
	var rounds, cycles, gcCPU []float64
	for _, p := range ps {
		rounds = append(rounds, spanTimes(p.scrapes, cpuS)...)
		cycles = append(cycles, float64(p.gcCycles))
		gcCPU = append(gcCPU, p.gcCPU)
	}
	m := map[string]metric{
		"pairs.ns_per_item":         {perItem("pairs.update"), "ns"},
		"pairs.keys_per_batch":      {note("pairs.keys_per_batch"), "count"},
		"registry.quantiles_us":     {perCall("registry.quantiles", 1e-6), "us"},
		"window.ns_per_item":        {perItem("window.update"), "ns"},
		"window.quantiles_us":       {perCall("window.quantiles", 1e-6), "us"},
		"window.live_slots":         {note("window.live_slots"), "count"},
		"sketch.update_ns_per_item": {perItem("sketch.update"), "ns"},
		"sketch.quantiles_us":       {perCall("sketch.quantiles", 1e-6), "us"},
		"sketch.retained_items":     {note("sketch.retained_items"), "count"},
		"sketch.levels":             {note("sketch.levels"), "count"},
		"serde.encode_us":           {perCall("serde.encode", 1e-6), "us"},
		"serde.decode_us":           {perCall("serde.decode", 1e-6), "us"},
		"merge.us":                  {perCall("merge", 1e-6), "us"},
		"persist.encode_ms":         {perCall("persist.encode", 1e-3), "ms"},
		"persist.save_ms":           {wallPerCall("persist.save", 1e-3), "ms"},
		"persist.save_wait_ms":      {wallPerCall("persist.save", 1e-3) - perCall("persist.save", 1e-3), "ms"},
		"persist.open_ms":           {perCall("persist.open", 1e-3), "ms"},
		"persist.first_query_us":    {perCall("persist.first_query", 1e-6), "us"},
		"persist.bytes":             {note("persist.bytes"), "B"},
		"runtime.gc_cycles":         {median(cycles), "count"},
		"runtime.gc_cpu_s":          {median(gcCPU), "s"},
		"setup.wait_s":              {wait(func(p passStats) span { return p.setup }), "s"},
		"ingest.wait_s":             {wait(func(p passStats) span { return total(p.ingest) }), "s"},
		"scrape.wait_s":             {wait(func(p passStats) span { return total(p.scrapes) }), "s"},
		"checkpoint.wait_s":         {wait(func(p passStats) span { return total(p.saves) }), "s"},
		"restore.wait_s":            {wait(func(p passStats) span { return total(p.restores) }), "s"},
		"scrape.p90_ms":             {percentile(rounds, 90) * 1e3, "ms"},
		"scrape.samples":            {float64(len(rounds)), "count"},
		"trace.overhead.setup_s":    {over["setup_s"], "%"},
		"trace.overhead.ingest":     {over["ingest_mitems_s"], "%"},
		"trace.overhead.scrape_ms":  {over["scrape_ms"], "%"},
		"trace.overhead.checkpoint": {over["checkpoint_s"], "%"},
		"trace.overhead.restore_ms": {over["restore_ms"], "%"},
	}
	return m
}
