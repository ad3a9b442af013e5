// Package e2e is the process harness shared by the serve and sessions
// smoke scripts and by the fleet and chaos experiments, which double as
// the fleet and chaos smokes at smoke size. It builds and spawns the
// real binaries, reads the address a daemon announces on its first
// stdout line, kills and reaps children (stopped ones too), speaks JSON
// over HTTP, scrapes /metrics pages, and reduces results to the
// findings bytes the determinism contract pins, so a routed answer can
// be compared byte for byte with a direct library run.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"canary"
	"canary/internal/api"
)

// client is the HTTP client of every helper below. Its timeout only
// guards against a hung peer; healthy analyses finish far sooner.
var client = &http.Client{Timeout: 10 * time.Minute}

// Build compiles the main package pkg (e.g. "./cmd/canaryd") into dir
// and returns the binary's path. Run it from the repository root.
func Build(dir, pkg string) (string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// FreeAddrs reserves n loopback addresses by listening on a random port
// and closing it again, for children that must know every member's
// address before any of them starts.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// Proc is one spawned child process and the address it announced.
type Proc struct {
	Addr   string
	Cmd    *exec.Cmd
	exited chan struct{}
	err    error // the exit status, valid once exited is closed
}

// Start starts cmd, reads "<prefix><addr>" from its first stdout line,
// and keeps the rest of stdout drained. The child's stderr is this
// process's unless cmd sets its own.
func Start(cmd *exec.Cmd, prefix string) (*Proc, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	line = strings.TrimSuffix(line, "\n")
	p := &Proc{Addr: strings.TrimPrefix(line, prefix), Cmd: cmd, exited: make(chan struct{})}
	go io.Copy(io.Discard, stdout)
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	if err != nil || p.Addr == line {
		p.Kill()
		return nil, fmt.Errorf("%s did not announce its address: first stdout line %q (%v)", cmd.Path, line, err)
	}
	return p, nil
}

// URL is the base URL of the announced address.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Kill SIGKILLs the child and reaps it. A SIGSTOPped child is sent
// SIGCONT first, so it is not left stopped waiting for the kill to be
// delivered. Kill is a no-op on a nil or already exited Proc.
func (p *Proc) Kill() {
	if p == nil {
		return
	}
	select {
	case <-p.exited:
		return
	default:
	}
	p.Cmd.Process.Signal(syscall.SIGCONT)
	p.Cmd.Process.Kill()
	<-p.exited
}

// Terminate sends SIGTERM and waits up to timeout for the child to exit
// on its own; anything but a prompt exit 0 is an error.
func (p *Proc) Terminate(timeout time.Duration) error {
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("%s exit after SIGTERM: %v", filepath.Base(p.Cmd.Path), p.err)
		}
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%s did not exit within %v of SIGTERM", filepath.Base(p.Cmd.Path), timeout)
	}
}

// Get GETs url and returns the response with its body read and closed.
func Get(url string) (*http.Response, []byte, error) {
	resp, err := client.Get(url)
	return readAll(resp, err)
}

// Post POSTs a JSON body and returns the response with its body read
// and closed.
func Post(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	return readAll(resp, err)
}

func readAll(resp *http.Response, err error) (*http.Response, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, buf, nil
}

// GetJSON GETs url and decodes the body into out whatever the status
// (health endpoints answer 503 with a JSON body when degraded).
func GetJSON(url string, out any) error {
	_, buf, err := Get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, out)
}

// PostJSON POSTs in as JSON and decodes a 200 answer into out; any
// other status is an error carrying the body.
func PostJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, buf, err := Post(url, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, buf)
	}
	return json.Unmarshal(buf, out)
}

// Metrics scrapes base's plain-text /metrics page once and returns
// every integer-valued series (labels included in the name, e.g.
// router_worker_up{worker="http://..."}) by name. Series with
// fractional values, such as latency sums, are left out. An unreachable
// page or a non-200 answer is an error, never a page of zeros.
func Metrics(base string) (map[string]uint64, error) {
	resp, buf, err := Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	m := make(map[string]uint64)
	for _, line := range strings.Split(string(buf), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseUint(line[i+1:], 10, 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

// Poll checks cond every interval until it holds or timeout passes, and
// reports how long it waited and whether cond held.
func Poll(timeout, interval time.Duration, cond func() bool) (time.Duration, bool) {
	start := time.Now()
	for {
		if cond() {
			return time.Since(start), true
		}
		if time.Since(start) > timeout {
			return time.Since(start), false
		}
		time.Sleep(interval)
	}
}

// WorkerStates reads a router's view of its workers (URL → "up",
// "saturated", "down") from /healthz?format=json; nil when unreachable.
func WorkerStates(routerBase string) map[string]string {
	var h struct {
		Workers []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := GetJSON(routerBase+"/healthz?format=json", &h); err != nil {
		return nil
	}
	states := make(map[string]string, len(h.Workers))
	for _, w := range h.Workers {
		states[w.URL] = w.State
	}
	return states
}

// WaitWorkersUp polls a router until at least want workers report "up".
func WaitWorkersUp(routerBase string, want int, timeout time.Duration) error {
	if _, ok := Poll(timeout, 100*time.Millisecond, func() bool {
		up := 0
		for _, st := range WorkerStates(routerBase) {
			if st == "up" {
				up++
			}
		}
		return up >= want
	}); !ok {
		return fmt.Errorf("router never reported %d workers up", want)
	}
	return nil
}

// Findings compacts the Reports array of a serialized canary.Result:
// the bytes the determinism contract pins (the stats and trace carry
// wall-clock times and may differ run to run).
func Findings(result json.RawMessage) (string, error) {
	var m struct {
		Reports json.RawMessage `json:"Reports"`
	}
	if err := json.Unmarshal(result, &m); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m.Reports); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// DirectFindings analyzes src with the library in this process and
// returns its findings bytes: the only output a daemon, router, or
// fleet may give for the same submission.
func DirectFindings(src string, opt canary.Options) (string, error) {
	res, err := canary.Analyze(src, opt)
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return Findings(raw)
}

// StreamOne submits src to base's /v1/analyze as a single synchronous
// request with a budget of one retry: a retryable answer (transport
// error, 502, 503, 504) is retried once after the server's Retry-After
// (capped at 5s) or half a second; a second failure is returned as the
// error. It returns the answer's findings and the retries spent.
func StreamOne(base, src string) (findings string, retries int, err error) {
	body, err := json.Marshal(api.AnalyzeRequest{Source: src})
	if err != nil {
		return "", 0, err
	}
	wait := 500 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			retries++
			time.Sleep(wait)
		}
		resp, buf, err := Post(base+"/v1/analyze", body)
		switch {
		case err != nil:
		case resp.StatusCode == http.StatusBadGateway ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout:
			err = fmt.Errorf("status %d: %s", resp.StatusCode, buf)
			if d, perr := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); perr == nil && d > 0 && d < 5*time.Second {
				wait = d
			}
		case resp.StatusCode != http.StatusOK:
			// A non-retryable refusal of a well-formed program is final.
			return "", retries, fmt.Errorf("status %d: %s", resp.StatusCode, buf)
		default:
			var jr api.JobResponse
			if err := json.Unmarshal(buf, &jr); err != nil {
				return "", retries, err
			}
			if jr.Status != "done" {
				return "", retries, fmt.Errorf("job %s: %s", jr.Status, jr.Error)
			}
			f, err := Findings(jr.Result)
			return f, retries, err
		}
		if attempt == 1 {
			return "", retries, err
		}
	}
}
