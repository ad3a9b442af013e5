package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"canary"
	"canary/internal/workload"
)

// PersistPhase is one fresh-process analysis run against a warm-state
// directory: its wall time, the reuse counters of that run, and the disk
// store's view of it.
type PersistPhase struct {
	Wall            time.Duration `json:"wall_ns"`
	SummaryHits     int           `json:"summary_hits"`
	FuncsReanalyzed int           `json:"funcs_reanalyzed"`
	VerdictHits     int           `json:"verdict_hits"`
	PairsRechecked  int           `json:"pairs_rechecked"`
	DiskHits        uint64        `json:"disk_hits"`
	DiskMisses      uint64        `json:"disk_misses"`
	DiskWrites      uint64        `json:"disk_writes"`
	DiskBytes       int64         `json:"disk_bytes"`
	DiskEntries     int64         `json:"disk_entries"`
}

// PersistResult measures the warm-restart scenario end to end, every phase
// in its own freshly exec'd process so nothing warm can survive in memory:
//
//   - Cold: analyze into an empty -warm-dir (populates the disk store).
//   - Warm: a new process re-analyzes the same program against the
//     populated store; its output must be byte-identical to cold and its
//     reuse must be fed entirely from disk.
//   - EditedCold / EditedWarm: the one-line-edit scenario of the
//     incremental experiment, except the warm state crosses a process
//     restart; SummaryReuse is the fraction of function summaries the
//     restarted process still reused.
type PersistResult struct {
	Lines int `json:"lines"`
	Iters int `json:"iters"`
	// Funcs is the function count of the edited program (the denominator
	// context for EditedWarm's reuse counters).
	Funcs      int          `json:"funcs"`
	Cold       PersistPhase `json:"cold"`
	Warm       PersistPhase `json:"warm"`
	EditedCold PersistPhase `json:"edited_cold"`
	EditedWarm PersistPhase `json:"edited_warm"`
	// Speedup is Cold.Wall / Warm.Wall (best-of-iters each).
	Speedup float64 `json:"speedup"`
	// Identical: the warm-restart run rendered byte-identically to cold.
	// EditedIdentical: same for the post-edit pair.
	Identical       bool `json:"identical"`
	EditedIdentical bool `json:"edited_identical"`
	// SummaryReuse is EditedWarm's SummaryHits/(SummaryHits+FuncsReanalyzed):
	// how much of the program survived a one-line edit plus a restart.
	SummaryReuse float64 `json:"summary_reuse"`
}

// persistChildReport is what a -persist-child process prints on stdout:
// the render of its reports plus every counter the parent aggregates.
type persistChildReport struct {
	Render          string           `json:"render"`
	Wall            time.Duration    `json:"wall_ns"`
	Funcs           int              `json:"funcs"`
	SummaryHits     int              `json:"summary_hits"`
	FuncsReanalyzed int              `json:"funcs_reanalyzed"`
	VerdictHits     int              `json:"verdict_hits"`
	PairsRechecked  int              `json:"pairs_rechecked"`
	Disk            canary.DiskStats `json:"disk"`
}

// persistOptions is the analysis configuration shared by the parent's
// expectations and every child process. FactPropagation is off for the
// same reason as the incremental experiment: it is the configuration
// where verdict reuse is measurable at these subject sizes.
func persistOptions() canary.Options {
	opt := canary.DefaultOptions()
	opt.FactPropagation = false
	return opt
}

// RunPersistChild is the body of a -persist-child process: open (or
// create) the persistent session rooted at dir, analyze srcPath through
// it, flush and close so every write lands, and print the report as JSON.
// It returns the process exit code.
func RunPersistChild(dir, srcPath string) int {
	data, err := os.ReadFile(srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	sess, err := canary.NewPersistentSession(dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	t0 := time.Now()
	res, err := sess.Analyze(context.Background(), string(data), persistOptions())
	wall := time.Since(t0)
	if err != nil {
		sess.Close()
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	sess.Flush()
	rep := persistChildReport{
		Render:          renderReports(res),
		Wall:            wall,
		Funcs:           res.VFG.SummaryHits + res.VFG.FuncsReanalyzed,
		SummaryHits:     res.VFG.SummaryHits,
		FuncsReanalyzed: res.VFG.FuncsReanalyzed,
		VerdictHits:     res.Check.VerdictHits,
		PairsRechecked:  res.Check.PairsRechecked,
		Disk:            sess.Stats().Disk,
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	return 0
}

// phaseOf projects a child report onto the aggregated phase record.
func phaseOf(rep persistChildReport) PersistPhase {
	return PersistPhase{
		Wall:            rep.Wall,
		SummaryHits:     rep.SummaryHits,
		FuncsReanalyzed: rep.FuncsReanalyzed,
		VerdictHits:     rep.VerdictHits,
		PairsRechecked:  rep.PairsRechecked,
		DiskHits:        rep.Disk.Hits,
		DiskMisses:      rep.Disk.Misses,
		DiskWrites:      rep.Disk.Writes,
		DiskBytes:       rep.Disk.Bytes,
		DiskEntries:     rep.Disk.Entries,
	}
}

// RunPersist measures warm restarts for spec, re-exec'ing exe (this very
// binary) with -persist-child flags so each phase runs in a genuinely
// fresh process. Cold and warm take the best of iters runs; cold iterations
// each get their own empty store directory, and the first one's store is
// the one every warm iteration restarts against.
func (e *Experiments) RunPersist(spec workload.Spec, iters int, exe string) (PersistResult, error) {
	if iters <= 0 {
		iters = 1
	}
	res := PersistResult{Lines: spec.Lines, Iters: iters}
	orig := workload.Generate(spec)
	edited, err := mutateMain(orig)
	if err != nil {
		return res, err
	}

	work, err := os.MkdirTemp("", "canary-persist-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)
	origPath := filepath.Join(work, "orig.cn")
	editedPath := filepath.Join(work, "edited.cn")
	if err := os.WriteFile(origPath, []byte(orig), 0o644); err != nil {
		return res, err
	}
	if err := os.WriteFile(editedPath, []byte(edited), 0o644); err != nil {
		return res, err
	}

	runChild := func(dir, src string) (persistChildReport, error) {
		var rep persistChildReport
		cmd := exec.Command(exe, "-persist-child", "-persist-dir", dir, "-persist-src", src)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return rep, fmt.Errorf("persist child: %w", err)
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			return rep, fmt.Errorf("persist child output: %w", err)
		}
		return rep, nil
	}

	// Cold phase: each iteration into its own empty store. The first
	// iteration's store becomes the warm state under test.
	store := filepath.Join(work, "store-0")
	var coldRender string
	for i := 0; i < iters; i++ {
		dir := filepath.Join(work, fmt.Sprintf("store-%d", i))
		rep, err := runChild(dir, origPath)
		if err != nil {
			return res, err
		}
		if i == 0 {
			coldRender = rep.Render
			res.Cold = phaseOf(rep)
		} else if rep.Wall < res.Cold.Wall {
			res.Cold.Wall = rep.Wall
		}
		e.logf("  persist cold iter %d: %v (%d disk writes)\n", i, rep.Wall.Round(time.Millisecond), rep.Disk.Writes)
	}

	// Warm phase: fresh processes against the populated store. Every
	// iteration restarts cold in memory, so all reuse is disk-fed.
	for i := 0; i < iters; i++ {
		rep, err := runChild(store, origPath)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.Identical = rep.Render == coldRender
			res.Warm = phaseOf(rep)
		} else if rep.Wall < res.Warm.Wall {
			res.Warm.Wall = rep.Wall
		}
		e.logf("  persist warm iter %d: %v (%d disk hits, identical=%v)\n",
			i, rep.Wall.Round(time.Millisecond), rep.Disk.Hits, rep.Render == coldRender)
	}
	if res.Warm.Wall > 0 {
		res.Speedup = float64(res.Cold.Wall) / float64(res.Warm.Wall)
	}

	// One-line edit across a restart: cold baseline in an empty store,
	// then the edited program against the original program's store.
	editedColdDir := filepath.Join(work, "store-edited-cold")
	repEC, err := runChild(editedColdDir, editedPath)
	if err != nil {
		return res, err
	}
	res.EditedCold = phaseOf(repEC)
	repEW, err := runChild(store, editedPath)
	if err != nil {
		return res, err
	}
	res.EditedWarm = phaseOf(repEW)
	res.Funcs = repEW.Funcs
	res.EditedIdentical = repEW.Render == repEC.Render
	if total := repEW.SummaryHits + repEW.FuncsReanalyzed; total > 0 {
		res.SummaryReuse = float64(repEW.SummaryHits) / float64(total)
	}
	e.logf("  persist edited: %d/%d summaries survived the edit+restart (reuse %.2f, identical=%v)\n",
		repEW.SummaryHits, repEW.Funcs, res.SummaryReuse, res.EditedIdentical)
	return res, nil
}
