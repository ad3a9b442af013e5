package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"canary"
)

// runWatch is the edit-native loop: open one live session over the
// file, then poll its mtime and feed each save to the session as a
// line-span diff against the revision the session already holds. Only
// the changed functions' reverse call cone is re-analyzed; the output
// is the findings delta (+added/-resolved), not a full re-listing.
// SIGINT exits 0 — watch mode is an editor companion, not a CI gate.
func runWatch(path string, sess *canary.Session, opt canary.Options, poll time.Duration) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary:", err)
		return 2
	}
	st, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary:", err)
		return 2
	}
	mtime, size := st.ModTime(), st.Size()

	start := time.Now()
	live, delta, err := sess.OpenLive(context.Background(), string(data), opt, canary.LiveConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary:", err)
		return 2
	}
	defer live.Close()
	reports, err := canary.FoldDelta(nil, delta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary: delta fold:", err)
		return 2
	}
	fmt.Printf("watching %s (poll %v; ctrl-c to stop)\n", path, poll)
	printDelta(nil, delta, time.Since(start))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("watch stopped")
			return 0
		case <-t.C:
		}
		st, err := os.Stat(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "canary:", err)
			continue
		}
		if st.ModTime().Equal(mtime) && st.Size() == size {
			continue
		}
		mtime, size = st.ModTime(), st.Size()
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "canary:", err)
			continue
		}
		edits := diffLines(live.Source(), string(data))
		if len(edits) == 0 {
			continue
		}
		start := time.Now()
		d, err := live.ApplyEdits(ctx, edits)
		if err != nil {
			if errors.Is(err, canary.ErrEditRejected) {
				// Mid-keystroke syntax error: keep the last good revision
				// and findings; the next save diffs against them again.
				fmt.Fprintln(os.Stderr, "canary: edit held:", err)
				continue
			}
			fmt.Fprintln(os.Stderr, "canary:", err)
			return 2
		}
		prev := reports
		reports, err = canary.FoldDelta(prev, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "canary: delta fold:", err)
			return 2
		}
		printDelta(prev, d, time.Since(start))
	}
}

// diffLines reduces two revisions to one line-span Edit by trimming
// the common line prefix and suffix — the minimal single-span patch,
// which is exactly what the session's invalidation narrows on.
func diffLines(oldSrc, newSrc string) []canary.Edit {
	if oldSrc == newSrc {
		return nil
	}
	a := splitLines(oldSrc)
	b := splitLines(newSrc)
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	text := ""
	if mid := b[p : len(b)-s]; len(mid) > 0 {
		text = strings.Join(mid, "\n") + "\n"
	}
	return []canary.Edit{{Start: p + 1, End: len(a) - s + 1, Text: text}}
}

func splitLines(src string) []string {
	lines := strings.Split(src, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// printDelta renders one findings delta: resolved reports (from the
// pre-fold snapshot) with "-", added with "+", then a one-line summary
// of how much of the program the edit actually re-analyzed.
func printDelta(prev []canary.Report, d *canary.FindingsDelta, elapsed time.Duration) {
	for _, i := range d.Resolved {
		if i < len(prev) {
			fmt.Printf("  - %v\n", prev[i])
		}
	}
	for _, a := range d.Added {
		fmt.Printf("  + %v\n", a.Report)
	}
	scope := "no re-analysis (representation-only change)"
	if d.Reanalyzed {
		scope = "full program"
		if len(d.Invalidated) > 0 {
			scope = fmt.Sprintf("re-analyzed %s", strings.Join(d.Invalidated, ", "))
		}
	}
	fmt.Printf("seq %d: +%d -%d =%d, %s, %v\n",
		d.Seq, len(d.Added), len(d.Resolved), d.Unchanged, scope, elapsed.Round(time.Millisecond))
}
