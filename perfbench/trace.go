package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. A nil
// *tracer records nothing, so untraced passes pay one nil check per call.
// Spans stay in memory and are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []spanRec
	open  []int32 // stack of open span ids: the innermost is the parent
	round int32
}

// spanRec is one call: wall times in ns since the run started, CPU time
// in ns of process CPU, and Items, the work the call was given.
type spanRec struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Items  int64  `json:"items,omitempty"`
	cpu0   time.Duration
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Parent: parent, Round: t.round})
	t.open = append(t.open, id)
	s := &t.spans[id]
	s.cpu0 = cpuNow()
	s.Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open one, recording the
// work it was given.
func (t *tracer) end(id int32, items int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	cpu := cpuNow()
	s := &t.spans[id]
	s.End, s.CPU, s.Items = end, int64(cpu-s.cpu0), int64(items)
	t.open = t.open[:len(t.open)-1]
}

// setRound tags the spans that follow with a round id (a scrape or fan-in
// round), so the calls of one round can be grouped.
func (t *tracer) setRound(r int) {
	if t != nil {
		t.round = int32(r)
	}
}

// layerSum sums the spans of one name.
type layerSum struct {
	Calls  int64   `json:"calls"`
	Items  int64   `json:"items"`
	WallS  float64 `json:"total_wall_s"`
	CPUS   float64 `json:"total_cpu_s"`
	SelfS  float64 `json:"self_wall_s"`
	selfNs int64
}

// summary sums spans by name. A span's self time is its wall duration
// minus the part its child spans cover (children never overlap: the
// benchmark is one goroutine).
func (t *tracer) summary() map[string]*layerSum {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerSum{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSum{}
			out[s.Name] = l
		}
		l.Calls++
		l.Items += s.Items
		l.WallS += float64(s.End-s.Start) / 1e9
		l.CPUS += float64(s.CPU) / 1e9
		l.selfNs += s.End - s.Start - child[i]
	}
	for _, l := range out {
		l.SelfS = float64(l.selfNs) / 1e9
	}
	return out
}

// write stores the spans and their per-layer summary as JSON at path.
func (t *tracer) write(path string, layers map[string]*layerSum, overhead map[string]float64) error {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	type layerOut struct {
		Name string `json:"name"`
		*layerSum
	}
	out := make([]layerOut, len(names))
	for i, n := range names {
		out[i] = layerOut{n, layers[n]}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Layers   []layerOut         `json:"layers"`
		Overhead map[string]float64 `json:"tracing_overhead"`
		Spans    []spanRec          `json:"spans"`
	}{out, overhead, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
