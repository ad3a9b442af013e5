package main

import (
	"fmt"
	"os"
	"time"

	"canary"
	"canary/internal/workload"
)

// coldLarge is the Fig. 8 regime: sequential one-shot canary.Analyze
// calls with no session on large SizeSweep-shaped subjects, so no warm
// store can help and the VFG build dominates.
type coldLarge struct {
	subjects []subject
	next     int
}

// subject is one generated program with its ground truth.
type subject struct {
	src   string
	lines int
	want  []string
}

func newSubject(spec workload.Spec) subject {
	src := workload.Generate(spec)
	return subject{src: src, lines: lineCount(src), want: expectedSources(src)}
}

// sweepSpec is the SizeSweep shape at the given size, reseeded.
func sweepSpec(lines int, seed int64) workload.Spec {
	spec := workload.SizeSweep(1, lines, lines)[0]
	spec.Seed = seed
	return spec
}

func newColdLarge(cfg config) (runner, error) {
	w := &coldLarge{}
	for i := 0; i < cfg.size.coldSubjects; i++ {
		w.subjects = append(w.subjects, newSubject(sweepSpec(cfg.size.coldLines, cfg.inputSeed(i))))
	}
	// Warm-up: one full analysis, so the first measured one does not pay
	// for first-touch page faults and heap growth.
	if ok, err := w.analyze(w.subjects[0]); err != nil || !ok {
		return nil, fmt.Errorf("cold-large warm-up analysis failed its check (error: %v)", err)
	}
	return w, nil
}

func (w *coldLarge) analyze(s subject) (bool, error) {
	res, err := canary.Analyze(s.src, canary.DefaultOptions())
	if err != nil {
		return false, err
	}
	return sameSources(reportSources(res.Reports), s.want), nil
}

func reportSources(rs []canary.Report) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Source.Fn
	}
	return out
}

func (w *coldLarge) run(until time.Time, tr *tracer) []opRecord {
	var recs []opRecord
	for time.Now().Before(until) {
		s := w.subjects[w.next%len(w.subjects)]
		w.next++
		op := tr.start("analyze", 0)
		t0 := time.Now()
		res, err := canary.Analyze(s.src, canary.DefaultOptions())
		wall := time.Since(t0)
		tr.end(op)
		ok := err == nil && sameSources(reportSources(res.Reports), s.want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cold-large: %v\n", err)
		}
		if tr != nil {
			ok = w.replay(tr, op, s) && ok
		}
		recs = append(recs, opRecord{class: "analyze", wall: wall, lines: s.lines, full: true, ok: ok})
		opsDone.Add(1)
	}
	return recs
}

// replay re-runs the operation's input through the layers, session-less
// like the operation itself (no digest keys, no warm stores).
func (w *coldLarge) replay(tr *tracer, op spanID, s subject) bool {
	root := tr.start("replay", op)
	defer tr.end(root)
	ast, err := parseLayer(tr, root, s.src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cold-large replay: %v\n", err)
		return false
	}
	fns, err := analyzeLayers(tr, root, ast, nil, nil, canary.DefaultOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cold-large replay: %v\n", err)
		return false
	}
	return sameSources(fns, s.want)
}

func (w *coldLarge) verify() int                    { return 0 }
func (w *coldLarge) layerMetrics(map[string]metric) {}
func (w *coldLarge) close()                         {}
