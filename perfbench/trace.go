package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no parent".
type spanID int

// span is one timed call into a layer, or one operation. Parent links
// make the record a forest: an operation's root span, the replay of its
// input through the layers, and the layer calls under that replay.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory; the traced run writes them
// out at the end. A nil *tracer records nothing, so the same replay code
// also warms replica stores untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// counts holds counters summed over the run; "analyses" counts the
	// replayed pipeline runs, and the other counters are reported per
	// analysis.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

func (t *tracer) start(name string, parent spanID) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[spanID][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start
		for _, c := range children[s.ID] {
			lo, hi := max64(c.Start, s.Start), min64(c.End, s.End)
			if hi > lo {
				self -= hi - lo
			}
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// write stores the spans as one JSON document in dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	buf, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Span names of the pipeline layers a replay calls, in call order. Their
// self times plus the unattributed remainder add up to the mean operation
// wall time.
var pipelineLayers = []string{
	"digest.canon", "lang.parse", "digest.keys", "pta.summaries",
	"ir.lower", "core.build", "core.check",
}

// Span names of the sequential Workers=1 re-run of the build through the
// core bench hooks, reported beside core.build_ms.
var splitLayers = []string{"core.index", "core.datadep", "core.interference"}

// Counters recorded per replayed analysis.
var perAnalysisCounters = []string{
	"pta.summary_hits", "pta.funcs_reanalyzed", "ir.insts", "ir.threads",
	"core.fixpoint_rounds", "vfg.nodes", "vfg.edges", "vfg.interference_edges",
	"check.sources", "check.paths_examined", "smt.queries",
	"check.trivial_solves", "check.verdict_hits", "digest.invalidated_funcs",
}

// workloadLayers are the per-layer metrics only one workload's system
// has: the live-session layer (edit-stream) and the daemon (daemon-mix).
// A workload that does not run the layer reports 0.
var workloadLayers = []struct{ name, unit string }{
	{"session.apply_trivial_ms", "ms"},
	{"session.apply_semantic_ms", "ms"},
	{"session.apply_toggle_ms", "ms"},
	{"session.delta_added", "count/save"},
	{"session.delta_resolved", "count/save"},
	{"server.request_repeat_ms", "ms"},
	{"server.request_near_ms", "ms"},
	{"server.request_fresh_ms", "ms"},
	{"cache.result_hit_ratio", "ratio"},
	{"server.queue_full", "count/op"},
	{"server.queue_depth_max", "count"},
}

// runTraced is the per-layer run: one set-up, then an untraced half that
// gives the baseline latency and the runtime counters, then a traced half
// in which every operation is followed by a replay of its input through
// the layers' public functions.
func runTraced(cfg config) (*result, error) {
	w, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	defer w.close()
	half := cfg.seconds / 2

	runtime.GC()
	rt0 := readRuntime(allocBytes, gcCycles, gcCPU, totalCPU)
	t0 := time.Now()
	plain := w.run(t0.Add(half), nil)
	rt1 := readRuntime(allocBytes, gcCycles, gcCPU, totalCPU)

	tr := newTracer()
	traced := w.run(time.Now().Add(half), tr)
	attempted, failed := tally(append(append([]opRecord(nil), plain...), traced...), w.verify())
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	if err := tr.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	m := make(map[string]metric)
	nPlain, nTraced := float64(len(plain)), float64(len(traced))
	m["runtime.alloc_mib_per_op"] = metric{(rt1[allocBytes] - rt0[allocBytes]) / (1 << 20) / nPlain, "MiB"}
	m["runtime.gc_cycles_per_op"] = metric{(rt1[gcCycles] - rt0[gcCycles]) / nPlain, "count"}
	gcFrac := 0.0
	if d := rt1[totalCPU] - rt0[totalCPU]; d > 0 {
		gcFrac = (rt1[gcCPU] - rt0[gcCPU]) / d
	}
	m["runtime.gc_cpu_frac"] = metric{gcFrac, "ratio"}

	self := tr.selfTimes()
	var opWall time.Duration
	var plainWalls, tracedWalls []time.Duration
	for _, r := range plain {
		plainWalls = append(plainWalls, r.wall)
	}
	for _, r := range traced {
		opWall += r.wall
		tracedWalls = append(tracedWalls, r.wall)
	}
	attributed := 0.0
	for _, name := range pipelineLayers {
		v := ms(self[name]) / nTraced
		m[name+"_ms"] = metric{v, "ms"}
		attributed += v
	}
	for _, name := range splitLayers {
		m[name+"_ms"] = metric{ms(self[name]) / nTraced, "ms"}
	}
	m["trace.unattributed_ms"] = metric{ms(opWall)/nTraced - attributed, "ms"}
	m["trace.overhead_ms"] = metric{ms(median(tracedWalls)) - ms(median(plainWalls)), "ms"}
	analyses := tr.counts["analyses"]
	m["trace.analyses_per_op"] = metric{analyses / nTraced, "count"}
	for _, name := range perAnalysisCounters {
		v := 0.0
		if analyses > 0 {
			v = tr.counts[name] / analyses
		}
		m[name] = metric{v, "count"}
	}
	ratio := 0.0
	if n := tr.counts["guard.intern_hits"] + tr.counts["guard.intern_misses"]; n > 0 {
		ratio = tr.counts["guard.intern_hits"] / n
	}
	m["guard.intern_hit_ratio"] = metric{ratio, "ratio"}
	w.layerMetrics(m)
	for _, x := range workloadLayers {
		if _, ok := m[x.name]; !ok {
			m[x.name] = metric{0, x.unit}
		}
	}
	res.Metrics = m
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d plain + %d traced ops, %.0f replayed analyses, %d failed\n",
		cfg.workload, cfg.seed, len(plain), len(traced), analyses, res.Failed)
	return res, nil
}
