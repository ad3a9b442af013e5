//go:build ignore

// sessions_smoke.go is the `make sessions-smoke` gate: an end-to-end
// exercise of the live-session surface of a real canaryd over real
// HTTP. It builds canaryd, starts it with a short idle TTL, opens a
// session on a buggy program, streams three edits (a comment-only save,
// a semantic insertion asserted against its revision, and a fix that
// deletes the bug), folds every returned delta client-side and checks
// the fold byte-identical to GET findings, exercises the duplicate-open
// and malformed/unappliable edit rejections, waits for the idle janitor
// to evict the session, and SIGTERMs the daemon expecting a clean exit.
//
// Run from the repository root: go run scripts/sessions_smoke.go
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/e2e"
)

// smokeSrc is the same inter-thread use-after-free the server unit
// tests use; line 1 is blank, main spans lines 2-7, worker 8-12, and
// the free that completes the bug sits on line 11.
const smokeSrc = `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sessions-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("sessions-smoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "canary-sessions-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin, err := e2e.Build(tmp, "./cmd/canaryd")
	if err != nil {
		return err
	}

	// A one-second idle TTL gives the janitor a 250ms sweep, so the
	// eviction phase completes in a couple of seconds.
	daemon, err := e2e.Start(exec.Command(bin, "-addr", "127.0.0.1:0", "-session-idle-ttl", "1s"),
		"canaryd listening on ")
	if err != nil {
		return err
	}
	defer daemon.Kill()
	base := daemon.URL()
	fmt.Println("sessions-smoke: daemon at", base)

	// Open a named session; its delta is the full initial findings.
	resp, body, err := e2e.Post(base+"/v1/sessions",
		mustJSON(map[string]any{"session_id": "smoke-ide", "source": smokeSrc}))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("open: status %d, body %s", resp.StatusCode, body)
	}
	var open api.DeltaResponse
	if err := json.Unmarshal(body, &open); err != nil {
		return err
	}
	if open.SessionID != "smoke-ide" || open.Seq != 0 || !open.Reanalyzed {
		return fmt.Errorf("open delta malformed: %s", body)
	}
	if len(open.Added) == 0 {
		return fmt.Errorf("opening a buggy program added no findings")
	}
	folded, err := canary.FoldDelta(nil, &open.FindingsDelta)
	if err != nil {
		return err
	}
	sess := base + "/v1/sessions/smoke-ide"
	fmt.Printf("sessions-smoke: open seq 0, %d finding(s)\n", len(open.Added))

	// Re-opening the same client-chosen ID must be refused with a typed
	// 409 while the first session stays untouched.
	resp, body, err = e2e.Post(base+"/v1/sessions",
		mustJSON(map[string]any{"session_id": "smoke-ide", "source": smokeSrc}))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusConflict || errCode(body) != api.CodeDuplicateSession {
		return fmt.Errorf("duplicate open: status %d code %q, want 409 %q (%s)",
			resp.StatusCode, errCode(body), api.CodeDuplicateSession, body)
	}

	// Edit 1: a trailing comment. Canonically a no-op — the session must
	// answer without re-analysis and carry every finding forward.
	d1, err := edit(sess, `{"edits":[{"start":13,"end":13,"text":"// reviewed\n"}]}`)
	if err != nil {
		return err
	}
	if d1.Reanalyzed || d1.Seq != 1 || d1.Unchanged != len(folded) {
		return fmt.Errorf("trivial edit: want seq 1 !reanalyzed unchanged=%d, got %+v", len(folded), d1)
	}
	if folded, err = canary.FoldDelta(folded, &d1.FindingsDelta); err != nil {
		return err
	}

	// Edit 2: a semantic insertion into main, asserted against revision
	// 1. The delta must come from a real warm re-run that invalidated
	// only the edited function's cone.
	d2, err := edit(sess, `{"seq":1,"edits":[{"start":3,"end":3,"text":"  pad1 = malloc();\n"}]}`)
	if err != nil {
		return err
	}
	if !d2.Reanalyzed || d2.Seq != 2 || len(d2.Invalidated) == 0 {
		return fmt.Errorf("semantic edit: want seq 2 reanalyzed with invalidated funcs, got %+v", d2)
	}
	if folded, err = canary.FoldDelta(folded, &d2.FindingsDelta); err != nil {
		return err
	}

	// Edit 3: delete the free that completes the use-after-free (line 11
	// of the original, shifted to 12 by edit 2). The bug must resolve.
	d3, err := edit(sess, `{"seq":2,"edits":[{"start":12,"end":13,"text":""}]}`)
	if err != nil {
		return err
	}
	if !d3.Reanalyzed || d3.Seq != 3 || len(d3.Resolved) == 0 {
		return fmt.Errorf("fix edit: want seq 3 with resolved findings, got %+v", d3)
	}
	if folded, err = canary.FoldDelta(folded, &d3.FindingsDelta); err != nil {
		return err
	}
	fmt.Printf("sessions-smoke: three edits streamed, %d finding(s) remain\n", len(folded))

	// Malformed and unappliable edits: a zero start line is refused at
	// the wire (400), a span beyond EOF by the engine (422) — and
	// neither advances the revision.
	resp, body, err = e2e.Post(sess+"/edits", []byte(`{"edits":[{"start":0,"end":0,"text":"x"}]}`))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("zero start line: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	resp, body, err = e2e.Post(sess+"/edits", []byte(`{"edits":[{"start":99,"end":99,"text":"x = 1;\n"}]}`))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(body) != api.CodeEditRejected {
		return fmt.Errorf("out-of-range span: status %d code %q, want 422 %q (%s)",
			resp.StatusCode, errCode(body), api.CodeEditRejected, body)
	}

	// The accumulated client-side fold must be byte-identical to the
	// server's own findings snapshot.
	resp, body, err = e2e.Get(sess + "/findings")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("findings: status %d (%s)", resp.StatusCode, body)
	}
	var fr api.FindingsResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return err
	}
	if fr.Seq != 3 {
		return fmt.Errorf("findings seq %d after three edits, want 3", fr.Seq)
	}
	fj, _ := json.Marshal(folded)
	sj, _ := json.Marshal(fr.Reports)
	if !bytes.Equal(fj, sj) {
		return fmt.Errorf("folded deltas differ from server findings:\nfold:   %s\nserver: %s", fj, sj)
	}
	fmt.Println("sessions-smoke: folded deltas byte-identical to GET findings")

	// Idle eviction: after a second with no traffic the janitor must
	// collect the session and count it as a TTL eviction. Every probe
	// itself counts as a touch and restarts the idle clock, so wait out
	// a full TTL-plus-sweep between probes rather than busy-polling.
	evicted := false
	for attempt := 0; attempt < 5 && !evicted; attempt++ {
		time.Sleep(1500 * time.Millisecond)
		resp, body, err = e2e.Get(sess + "/findings")
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			if errCode(body) != api.CodeUnknownSession {
				return fmt.Errorf("evicted session code %q, want %q", errCode(body), api.CodeUnknownSession)
			}
			evicted = true
		}
	}
	if !evicted {
		return fmt.Errorf("session not evicted after its 1s idle TTL")
	}
	resp, body, err = e2e.Get(base + "/metrics")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"canaryd_sessions_open 0",
		"canaryd_sessions_evicted_ttl_total 1",
		"canaryd_session_edits_total 3",
		"canaryd_session_trivial_edits_total 1",
		"canaryd_session_edits_rejected_total 1",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	fmt.Println("sessions-smoke: TTL eviction and session metrics ok")

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := daemon.Terminate(30 * time.Second); err != nil {
		return err
	}
	fmt.Println("sessions-smoke: clean shutdown")
	return nil
}

// edit POSTs one edit batch and decodes the 200 delta response.
func edit(sess, body string) (*api.DeltaResponse, error) {
	resp, buf, err := e2e.Post(sess+"/edits", []byte(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("edit %s: status %d (%s)", body, resp.StatusCode, buf)
	}
	var dr api.DeltaResponse
	if err := json.Unmarshal(buf, &dr); err != nil {
		return nil, err
	}
	return &dr, nil
}

// errCode extracts the machine code of a typed JSON error body.
func errCode(body []byte) string {
	var e api.ErrorResponse
	_ = json.Unmarshal(body, &e)
	return e.Code
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
