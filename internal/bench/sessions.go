package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"canary"
	"canary/internal/digest"
	"canary/internal/workload"
)

// SessionEditSample is one edit round of the sessions experiment: the
// same source change applied two ways — as a line-span patch through a
// live session (delta out) and as a full re-submission through a warm
// session (whole findings out) — with both sides' wall time including
// the JSON encode of what each would put on the wire.
type SessionEditSample struct {
	Seq         int
	Trivial     bool
	SessionTime time.Duration
	RerunTime   time.Duration
	Invalidated int
	Added       int
	Resolved    int
	Unchanged   int
}

// SessionsResult measures the edit-native protocol end to end. The two
// hard gates: FoldIdentical (the accumulated deltas reproduce a cold
// full analysis of the final source byte-for-byte) and SessionMedian <
// RerunMedian (over the whole edit stream, answering an edit through
// the session is strictly cheaper than the path it replaces — a client
// that re-submits the full source and pays a warm full re-run for every
// save, whether or not the save changed anything the analysis can see).
type SessionsResult struct {
	Lines int
	Edits int
	// OpenTime is the initial full analysis behind POST /v1/sessions.
	OpenTime time.Duration
	// SessionMedian and RerunMedian are per-edit medians over the whole
	// stream: every save costs the delta-less client a full warm re-run,
	// while the session short-circuits the representation-only ones.
	SessionMedian time.Duration
	RerunMedian   time.Duration
	// RealMedian and RealRerunMedian restrict both sides to the rounds
	// that actually re-analyzed — the honest view of the re-analysis
	// spine itself, which both paths share warm.
	RealMedian      time.Duration
	RealRerunMedian time.Duration
	// TrivialMedian is the session-side median of the comment-only
	// rounds — the representation-only fast path.
	TrivialMedian time.Duration
	Speedup       float64
	FoldIdentical bool
	Samples       []SessionEditSample
}

// sessionEditAt builds edit i of the scripted save stream: two
// representation-only saves (a trailing comment) for every semantic
// change (a fresh statement inserted before main's closing brace, which
// re-keys main's digest). The 2:1 mix models an IDE autosave stream,
// where most saves land mid-comment or reformat without changing what
// the analysis can observe.
func sessionEditAt(src string, i int) (canary.Edit, bool) {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	n := len(lines)
	if i%3 != 2 {
		return canary.Edit{Start: n + 1, End: n + 1, Text: fmt.Sprintf("// pass %d\n", i)}, true
	}
	last := 0
	for j, l := range lines {
		if strings.TrimSpace(l) == "}" {
			last = j + 1
		}
	}
	if last == 0 {
		return canary.Edit{}, false
	}
	return canary.Edit{Start: last, End: last, Text: fmt.Sprintf("  spad%d = 1;\n", i)}, false
}

// RunSessions drives one live session and one warm full-re-run baseline
// through the same alternating edit script and compares their per-edit
// cost. Both baselines start from the same analyzed original, so the
// comparison isolates exactly what the diff protocol saves: the
// unchanged functions' re-analysis and the unchanged findings' re-wire.
// The whole script runs sessionIters times with fresh sessions, and each
// edit keeps the best of its runs on both sides — the same
// noise-floor discipline the incremental experiment uses.
func (e *Experiments) RunSessions(spec workload.Spec, edits int) (SessionsResult, error) {
	if edits <= 0 {
		edits = 9
	}
	const sessionIters = 3
	orig := workload.Generate(spec)
	opt := canary.DefaultOptions()
	// Same configuration as the incremental experiment, for the same
	// reason: with the order-fact closure on, the synthetic subjects
	// settle before the stores the warm paths reuse are ever consulted.
	opt.FactPropagation = false

	res := SessionsResult{Lines: spec.Lines, Edits: edits}
	for it := 0; it < sessionIters; it++ {
		one, err := e.runSessionsOnce(orig, opt, edits, it)
		if err != nil {
			return res, err
		}
		if it == 0 {
			res.OpenTime = one.OpenTime
			res.Samples = one.Samples
			res.FoldIdentical = one.FoldIdentical
			continue
		}
		if one.OpenTime < res.OpenTime {
			res.OpenTime = one.OpenTime
		}
		res.FoldIdentical = res.FoldIdentical && one.FoldIdentical
		for i := range res.Samples {
			if one.Samples[i].SessionTime < res.Samples[i].SessionTime {
				res.Samples[i].SessionTime = one.Samples[i].SessionTime
			}
			if one.Samples[i].RerunTime < res.Samples[i].RerunTime {
				res.Samples[i].RerunTime = one.Samples[i].RerunTime
			}
		}
	}

	var all, rerunAll, realTimes, realRerun, trivialTimes []time.Duration
	for _, s := range res.Samples {
		all = append(all, s.SessionTime)
		rerunAll = append(rerunAll, s.RerunTime)
		if s.Trivial {
			trivialTimes = append(trivialTimes, s.SessionTime)
		} else {
			realTimes = append(realTimes, s.SessionTime)
			realRerun = append(realRerun, s.RerunTime)
		}
	}
	res.SessionMedian = medianDuration(all)
	res.RerunMedian = medianDuration(rerunAll)
	res.RealMedian = medianDuration(realTimes)
	res.RealRerunMedian = medianDuration(realRerun)
	res.TrivialMedian = medianDuration(trivialTimes)
	if res.SessionMedian > 0 {
		res.Speedup = float64(res.RerunMedian) / float64(res.SessionMedian)
	}
	return res, nil
}

// runSessionsOnce is one full pass of the sessions experiment: fresh
// live and baseline sessions over orig, the alternating script applied
// to both, every delta folded and the fold checked against a cold
// analysis of the final source.
func (e *Experiments) runSessionsOnce(orig string, opt canary.Options, edits, iter int) (SessionsResult, error) {
	res := SessionsResult{}
	ctx := context.Background()

	t0 := time.Now()
	live, d, err := canary.NewSession().OpenLive(context.Background(), orig, opt, canary.LiveConfig{})
	if err != nil {
		return res, err
	}
	res.OpenTime = time.Since(t0)
	defer live.Close()
	folded, err := canary.FoldDelta(nil, d)
	if err != nil {
		return res, err
	}

	// The baseline a delta-less client would use: a warm session fed the
	// whole new source every time.
	baseSess := canary.NewSession()
	if _, err := baseSess.Analyze(context.Background(), orig, opt); err != nil {
		return res, err
	}

	cur := orig
	for i := 0; i < edits; i++ {
		ed, trivial := sessionEditAt(cur, i)
		if ed.Start == 0 {
			return res, fmt.Errorf("sessions experiment: no closing brace in subject")
		}
		next, err := digest.ApplyEdits(cur, []digest.Edit{{Start: ed.Start, End: ed.End, Text: ed.Text}})
		if err != nil {
			return res, fmt.Errorf("sessions experiment: mirror apply: %w", err)
		}

		t0 := time.Now()
		delta, err := live.ApplyEdits(ctx, []canary.Edit{ed})
		if err != nil {
			return res, err
		}
		if _, err := json.Marshal(delta); err != nil {
			return res, err
		}
		sessionTime := time.Since(t0)

		t0 = time.Now()
		bres, err := baseSess.Analyze(context.Background(), next, opt)
		if err != nil {
			return res, err
		}
		// The one-shot wire format (api.JobResponse) carries the whole
		// Result, so that is what the delta-less baseline pays to encode.
		if _, err := json.Marshal(bres); err != nil {
			return res, err
		}
		rerunTime := time.Since(t0)

		if folded, err = canary.FoldDelta(folded, delta); err != nil {
			return res, err
		}
		if trivial != !delta.Reanalyzed {
			return res, fmt.Errorf("sessions experiment: edit %d trivial=%v but Reanalyzed=%v", i, trivial, delta.Reanalyzed)
		}
		res.Samples = append(res.Samples, SessionEditSample{
			Seq:         delta.Seq,
			Trivial:     trivial,
			SessionTime: sessionTime,
			RerunTime:   rerunTime,
			Invalidated: len(delta.Invalidated),
			Added:       len(delta.Added),
			Resolved:    len(delta.Resolved),
			Unchanged:   delta.Unchanged,
		})
		e.logf("  sessions iter %d edit %d (%s): session=%v rerun=%v invalidated=%d\n",
			iter, i, map[bool]string{true: "trivial", false: "real"}[trivial],
			sessionTime.Round(time.Microsecond), rerunTime.Round(time.Microsecond),
			len(delta.Invalidated))
		cur = next
	}

	cold, err := canary.Analyze(cur, opt)
	if err != nil {
		return res, err
	}
	res.FoldIdentical = fmt.Sprintf("%#v", folded) == fmt.Sprintf("%#v", cold.Reports)
	return res, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
