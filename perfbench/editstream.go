package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"canary"
	"canary/internal/cache"
	"canary/internal/digest"
)

// editStream drives one live session with a seeded save script: mostly
// representation-only saves (the canonical fast path), semantic saves
// into filler helpers (a warm re-run of the whole pipeline), and bug
// toggles that delete and later restore one tp_ worker's free, so the
// findings delta resolves and then re-adds one report.
type editStream struct {
	opt   canary.Options
	live  *canary.LiveSession
	lines []string // the current revision, mirrored to build edits
	want  []string // every seeded source function

	// calcLines holds the line of each filler helper's first statement,
	// which semantic saves rewrite in place; frees maps each tp_ worker
	// to the line of its free.
	calcLines []int
	frees     map[string]int
	workers   []string

	rng      *rand.Rand
	block    []string // save classes left in the current block
	constant int      // strictly increasing, so every semantic save changes the program
	toggled  string   // the worker whose free is deleted, "" if none
	folded   []canary.Report

	// Replay state of a traced run, mirroring the session.
	rep      *replica
	repSrc   string
	repCanon string
	repKeys  map[string]cache.Key

	// Traced-phase observations for the session layer's metrics.
	applyWalls      map[string][]time.Duration
	added, resolved int
}

// saveBlock is the class mix: per ten saves, eight representation-only,
// one semantic and one bug toggle, shuffled per block. The shares are
// assumed, not modelled on measured editor traffic. They put
// latency_p50_ms at the 62nd percentile of the representation-only
// saves, clear of the fifth of them that a GC cycle overlaps (about 1.8×
// slower). The 2:1 autosave model of canary-bench's sessions experiment
// puts it at their 75th percentile, on that boundary, where its
// run-to-run spread measured 11% on a quiet host and 24% under host steal.
var saveBlock = []string{
	"trivial", "trivial", "trivial", "trivial", "trivial", "trivial", "trivial", "trivial",
	"semantic", "toggle",
}

var (
	calcFunc = regexp.MustCompile(`^func calc\d+\(`)
	tpWorker = regexp.MustCompile(`^func (tp_uaf_worker\d+)\(`)
)

const freeLine = "  free(payload);"

func newEditStream(cfg config) (runner, error) {
	sub := newSubject(sweepSpec(cfg.size.editLines, cfg.inputSeed(0)))
	w := &editStream{
		opt:        canary.DefaultOptions(),
		lines:      strings.Split(strings.TrimSuffix(sub.src, "\n"), "\n"),
		want:       sub.want,
		frees:      make(map[string]int),
		rng:        rand.New(rand.NewSource(cfg.inputSeed(0))),
		applyWalls: make(map[string][]time.Duration),
	}
	for i, l := range w.lines {
		if calcFunc.MatchString(l) {
			w.calcLines = append(w.calcLines, i+2)
		}
		if m := tpWorker.FindStringSubmatch(l); m != nil {
			for j := i + 1; j < len(w.lines) && w.lines[j] != "}"; j++ {
				if w.lines[j] == freeLine {
					w.frees[m[1]] = j + 1
					w.workers = append(w.workers, m[1])
				}
			}
		}
	}
	if len(w.calcLines) == 0 || len(w.workers) == 0 {
		return nil, fmt.Errorf("edit-stream: subject has no filler helper or tp_ worker")
	}
	sort.Strings(w.workers)

	live, d, err := canary.NewSession().Open(sub.src, w.opt)
	if err != nil {
		return nil, fmt.Errorf("opening the session: %w", err)
	}
	w.live = live
	if w.folded, err = canary.FoldDelta(nil, d); err != nil || !sameSources(reportSources(w.folded), w.want) {
		return nil, fmt.Errorf("edit-stream: opening findings do not match the seeded set")
	}
	// Warm-up: one save of each kind, and the toggle's restore.
	for _, class := range []string{"trivial", "semantic", "toggle", "toggle"} {
		if _, ok := w.save(class, nil); !ok {
			return nil, fmt.Errorf("edit-stream: warm-up %s save failed", class)
		}
	}
	return w, nil
}

func (w *editStream) run(until time.Time, tr *tracer) []opRecord {
	if tr != nil && w.rep == nil {
		if err := w.syncReplica(); err != nil {
			fmt.Fprintf(os.Stderr, "edit-stream: %v\n", err)
			return []opRecord{{class: "sync", ok: false}}
		}
	}
	var recs []opRecord
	for time.Now().Before(until) {
		if len(w.block) == 0 {
			w.block = append([]string(nil), saveBlock...)
			w.rng.Shuffle(len(w.block), func(i, j int) { w.block[i], w.block[j] = w.block[j], w.block[i] })
		}
		class := w.block[0]
		w.block = w.block[1:]
		wall, ok := w.save(class, tr)
		lines := len(w.lines)
		if class == "trivial" {
			lines = 0 // answered by the canonical fast path, nothing analyzed
		}
		recs = append(recs, opRecord{class: class, wall: wall, lines: lines, full: class == "semantic", ok: ok})
		opsDone.Add(1)
	}
	return recs
}

// save makes one save of the given class, checks the delta and the folded
// findings against the expected set, and returns the save's wall time.
func (w *editStream) save(class string, tr *tracer) (time.Duration, bool) {
	var line int
	var text string
	want := w.want
	switch class {
	case "trivial":
		line = 1 + w.rng.Intn(len(w.lines))
		text = stripComment(w.lines[line-1]) + fmt.Sprintf(" // saved %d", w.rng.Intn(1000))
		if w.toggled != "" {
			want = without(w.want, w.toggled)
		}
	case "semantic":
		line = w.calcLines[w.rng.Intn(len(w.calcLines))]
		w.constant++
		text = fmt.Sprintf("  t1 = a + %d;", w.constant)
		if w.toggled != "" {
			want = without(w.want, w.toggled)
		}
	case "toggle":
		if w.toggled == "" {
			w.toggled = w.workers[w.rng.Intn(len(w.workers))]
			line, text = w.frees[w.toggled], ""
			want = without(w.want, w.toggled)
		} else {
			line, text = w.frees[w.toggled], freeLine
			w.toggled = ""
		}
	}
	edits := []canary.Edit{{Start: line, End: line + 1, Text: text + "\n"}}

	op := tr.start("session.apply", 0)
	t0 := time.Now()
	d, err := w.live.ApplyEdits(context.Background(), edits)
	wall := time.Since(t0)
	tr.end(op)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edit-stream %s save: %v\n", class, err)
		return wall, false
	}
	w.lines[line-1] = text
	folded, err := canary.FoldDelta(w.folded, d)
	ok := err == nil && sameSources(reportSources(folded), want)
	switch class {
	case "trivial":
		ok = ok && !d.Reanalyzed
	case "semantic":
		ok = ok && d.Reanalyzed && len(d.Added) == 0 && len(d.Resolved) == 0
	case "toggle":
		// Reports of other modules may come back re-labelled (the deleted
		// free shifts instruction labels), so only the net change is fixed.
		net := len(d.Added) - len(d.Resolved)
		ok = ok && d.Reanalyzed && (net == -1) == (w.toggled != "") && (net == 1) == (w.toggled == "")
	}
	if err == nil {
		w.folded = folded
	}

	if tr != nil {
		w.applyWalls[class] = append(w.applyWalls[class], wall)
		w.added += len(d.Added)
		w.resolved += len(d.Resolved)
		ok = w.replay(tr, op, edits, want) && ok
	}
	return wall, ok
}

func stripComment(line string) string {
	if i := strings.Index(line, " //"); i >= 0 {
		return line[:i]
	}
	return line
}

// syncReplica points the replay mirror at the session's current revision
// and warms its stores with that revision, as the session's are.
func (w *editStream) syncReplica() error {
	w.rep = newReplica()
	w.repSrc = w.live.Source()
	w.repCanon = digest.CanonicalSource(w.repSrc)
	ast, err := parseLayer(nil, 0, w.repSrc)
	if err != nil {
		return err
	}
	w.repKeys = digest.SummaryKeys(ast)
	_, err = analyzeLayers(nil, 0, ast, w.repKeys, w.rep, w.opt)
	return err
}

// replay re-runs the save through the layers the way ApplyEdits does:
// patch and canonicalize; stop there for a representation-only save;
// otherwise parse, re-key, and re-run the pipeline over warm stores.
func (w *editStream) replay(tr *tracer, op spanID, edits []canary.Edit, want []string) bool {
	root := tr.start("replay", op)
	defer tr.end(root)
	s := tr.start("digest.canon", root)
	patched, err := digest.ApplyEdits(w.repSrc, []digest.Edit{{Start: edits[0].Start, End: edits[0].End, Text: edits[0].Text}})
	canon := digest.CanonicalSource(patched)
	tr.end(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edit-stream replay: %v\n", err)
		return false
	}
	w.repSrc = patched
	if canon == w.repCanon {
		return true
	}
	w.repCanon = canon
	ast, err := parseLayer(tr, root, patched)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edit-stream replay: %v\n", err)
		return false
	}
	s = tr.start("digest.keys", root)
	keys := digest.SummaryKeys(ast)
	tr.add("digest.invalidated_funcs", float64(len(digest.Invalidated(w.repKeys, keys))))
	tr.end(s)
	w.repKeys = keys
	fns, err := analyzeLayers(tr, root, ast, keys, w.rep, w.opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edit-stream replay: %v\n", err)
		return false
	}
	return sameSources(fns, want)
}

// verify checks the folded deltas against a cold analysis of the final
// revision, byte for byte.
func (w *editStream) verify() int {
	res, err := canary.Analyze(w.live.Source(), w.opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edit-stream final analysis: %v\n", err)
		return 1
	}
	a, errA := json.Marshal(w.folded)
	b, errB := json.Marshal(res.Reports)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		fmt.Fprintln(os.Stderr, "edit-stream: folded findings differ from a cold analysis of the final revision")
		return 1
	}
	return 0
}

func (w *editStream) layerMetrics(m map[string]metric) {
	for _, class := range []string{"trivial", "semantic", "toggle"} {
		m["session.apply_"+class+"_ms"] = metric{ms(median(w.applyWalls[class])), "ms"}
	}
	// Per toggle save, the only class whose delta is not empty, so a
	// faster session does not read as a larger delta.
	toggles := float64(max(len(w.applyWalls["toggle"]), 1))
	m["session.delta_added"] = metric{float64(w.added) / toggles, "count/save"}
	m["session.delta_resolved"] = metric{float64(w.resolved) / toggles, "count/save"}
}

func (w *editStream) close() { w.live.Close() }
