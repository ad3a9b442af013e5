// Command perfbench is the repository benchmark. It runs one named
// workload against the analyzer built from this checkout, checks every
// operation's findings against the generator's seeded ground truth, and
// prints one JSON result line whose metrics are the end-to-end set (plain
// run) or the per-layer set (traced run) declared in BENCHMARK.json.
//
//	perfbench --workload cold-large --seed 1 --seconds 25 --trace 0
//
// Human-readable progress goes to standard error; the last line of
// standard output is the result object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// sizes fixes the input sizes of every workload. The self-test runs the
// same code at smokeSizes.
type sizes struct {
	// coldSubjects is the number of distinct cold-large subjects a part
	// cycles through, more than a part analyzes, so that a run's median
	// spans as many programs as it can and the seed moves it little.
	coldSubjects int
	coldLines    int // lines per cold-large subject
	editLines    int // lines of the edit-stream subject
	daemonLines  int // lines per daemon-mix program
	daemonRepeat int // distinct programs in the daemon-mix repeat pool
	// daemonFreshPerSecond sizes the pre-generated pool of fresh
	// programs per measured second, over twice the fastest rate the closed
	// loop has consumed them at (135 per second on 2 vCPUs). A part that
	// drains the pool ends early and reports over the time it measured.
	daemonFreshPerSecond int
}

var fullSizes = sizes{
	coldSubjects:         16,
	coldLines:            40000,
	editLines:            10000,
	daemonLines:          1200,
	daemonRepeat:         24,
	daemonFreshPerSecond: 300,
}

var smokeSizes = sizes{
	coldSubjects:         2,
	coldLines:            2500,
	editLines:            1500,
	daemonLines:          600,
	daemonRepeat:         4,
	daemonFreshPerSecond: 200,
}

// parts is the number of processes a plain run measures in, one after
// the other, each for its share of --seconds on its own inputs. The
// figures of one process are shifted by its memory layout and scheduling,
// and on a shared host by bursts of stolen CPU time; the median of three
// processes keeps one such shift out of the result, and their three
// set-ups give setup_s as a median.
const parts = 3

type config struct {
	workload string
	seed     int64
	// part selects the inputs of one measured process (0 to parts-1).
	part    int
	seconds time.Duration
	// spansDir receives the traced run's span file.
	spansDir string
	size     sizes
}

// inputSeed is the generator seed of the i-th input of this part.
func (c config) inputSeed(i int) int64 {
	return (c.seed*parts+int64(c.part))*100000 + int64(i)
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one measured operation.
type opRecord struct {
	class string
	wall  time.Duration
	// lines is the size of the program the operation analyzed, 0 for an
	// operation that analyzed nothing (a representation-only save, a
	// result-cache hit); kloc_per_s is over the operations that did.
	lines int
	// full marks operations that run the whole pipeline on content the
	// system has not analyzed before; pipeline_p50_ms is their median.
	full bool
	ok   bool
}

// A runner owns one workload's system under test, built from generated
// inputs, and drives operations against it.
type runner interface {
	// run drives operations until the deadline (or until a pre-generated
	// input pool runs dry) and returns one record per operation. A non-nil
	// tracer records layer spans and counters for every operation.
	run(until time.Time, tr *tracer) []opRecord
	// verify runs the end-of-run oracle checks that are too slow for the
	// measured loop and returns how many failed.
	verify() int
	// layerMetrics adds the workload's own per-layer metrics of a traced
	// run.
	layerMetrics(m map[string]metric)
	close()
}

var workloads = map[string]func(cfg config) (runner, error){
	"cold-large":  newColdLarge,
	"edit-stream": newEditStream,
	"daemon-mix":  newDaemonMix,
}

// heapWindows fixes the operations peak_heap_mib covers in each
// workload, the first half of a part or less at --seconds 25, so that a
// system twice as slow still completes them: cold-large analyses one at
// a time; edit-stream saves in windows of two ten-save blocks;
// daemon-mix requests 150 at a time.
var heapWindows = map[string]heapWindow{
	"cold-large":  {ops: 1, count: 7},
	"edit-stream": {ops: 20, count: 8},
	"daemon-mix":  {ops: 150, count: 12},
}

func main() {
	var cfg config
	var seconds, trace, partMS int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cold-large, edit-stream or daemon-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory for the traced run's span file")
	flag.IntVar(&cfg.part, "part", 0, "internal: the part a --part-ms process measures")
	flag.IntVar(&partMS, "part-ms", 0, "internal: measure one part for this many milliseconds and print its raw figures")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || seconds < 1 || (trace != 0 && trace != 1) || cfg.part < 0 || cfg.part >= parts {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-large|edit-stream|daemon-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.size = fullSizes

	var out interface{}
	var err error
	switch {
	case partMS > 0:
		cfg.seconds = time.Duration(partMS) * time.Millisecond
		out, err = measure(cfg)
	case trace == 1:
		out, err = runTraced(cfg)
	default:
		out, err = runParts(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
	if res, ok := out.(*result); ok && !res.Correct {
		os.Exit(1)
	}
}

// partResult is the raw figures of one measured process.
type partResult struct {
	Setup     time.Duration   `json:"setup_ns"`
	Elapsed   time.Duration   `json:"elapsed_ns"`
	CPU       time.Duration   `json:"cpu_ns"`
	PeakHeap  float64         `json:"peak_heap_mib"`
	Lines     int             `json:"lines"`
	Analyzing time.Duration   `json:"analyzing_ns"`
	Walls     []time.Duration `json:"walls_ns"`
	Full      []time.Duration `json:"full_ns"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
}

// runParts measures the plain run as parts processes of this program, one
// after the other, and aggregates their figures.
func runParts(cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := cfg.seconds / parts
	var ps []partResult
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--part", strconv.Itoa(i), "--part-ms", strconv.FormatInt(share.Milliseconds(), 10))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p partResult
		if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		ps = append(ps, p)
	}
	return aggregate(ps)
}

// measure sets the workload up once and measures it for cfg.seconds.
func measure(cfg config) (*partResult, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	p := &partResult{Setup: time.Since(t0)}
	defer w.close()

	runtime.GC()
	base := heapLive()
	heap := startHeapSampler(heapWindows[cfg.workload])
	cpu0 := cpuTime()
	steal0, ticks0 := cpuTicks()
	t0 = time.Now()
	recs := w.run(t0.Add(cfg.seconds), nil)
	p.Elapsed = time.Since(t0)
	p.CPU = cpuTime() - cpu0
	steal1, ticks1 := cpuTicks()
	p.PeakHeap = (float64(heap.stop()) - float64(base)) / (1 << 20)

	p.Attempted, p.Failed = tally(recs, w.verify())
	for _, r := range recs {
		if r.lines > 0 {
			p.Lines += r.lines
			p.Analyzing += r.wall
		}
		p.Walls = append(p.Walls, r.wall)
		if r.full {
			p.Full = append(p.Full, r.wall)
		}
	}
	stealFrac := 0.0
	if ticks1 > ticks0 {
		stealFrac = (steal1 - steal0) / (ticks1 - ticks0)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d part %d: %d ops (%d full) in %.1fs, %d failed, host steal %.1f%%\n",
		cfg.workload, cfg.seed, cfg.part, len(recs), len(p.Full), p.Elapsed.Seconds(), p.Failed, 100*stealFrac)
	return p, nil
}

// aggregate turns the parts into the end-to-end metrics: each metric is
// the median of the parts' values, so host interference that hits one
// part does not move it.
func aggregate(ps []partResult) (*result, error) {
	res := &result{}
	vals := make(map[string][]float64)
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, p := range ps {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		n := float64(len(p.Walls))
		if n == 0 || len(p.Full) == 0 || p.Analyzing == 0 {
			return nil, fmt.Errorf("a part completed no operation of some class")
		}
		secs := p.Elapsed.Seconds()
		add("setup_s", p.Setup.Seconds())
		add("ops_per_s", n/secs)
		add("kloc_per_s", float64(p.Lines)/1000/p.Analyzing.Seconds())
		add("latency_p50_ms", ms(median(p.Walls)))
		add("pipeline_p50_ms", ms(median(p.Full)))
		add("cpu_ms_per_op", ms(p.CPU)/n)
		add("peak_heap_mib", p.PeakHeap)
	}
	res.Correct = res.Failed == 0
	units := map[string]string{
		"setup_s": "s", "ops_per_s": "1/s", "kloc_per_s": "kloc/s", "latency_p50_ms": "ms",
		"pipeline_p50_ms": "ms", "cpu_ms_per_op": "ms", "peak_heap_mib": "MiB",
	}
	res.Metrics = make(map[string]metric, len(units))
	for name, unit := range units {
		res.Metrics[name] = metric{median(vals[name]), unit}
	}
	fmt.Fprintf(os.Stderr, "%d parts, %d ops, %d failed, failed_frac %.4f\n",
		len(ps), res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// tally counts the operations attempted and failed; extra are failures
// found by the end-of-run checks.
func tally(recs []opRecord, extra int) (attempted, failed int) {
	failed = extra
	for _, r := range recs {
		if !r.ok {
			failed++
		}
	}
	return max(len(recs), failed), failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does; 0 for no values.
func median[T ~int64 | ~uint64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
