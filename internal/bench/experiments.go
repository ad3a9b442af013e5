package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"canary"
	"canary/internal/baseline"
	"canary/internal/core"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/pipeline"
	"canary/internal/workload"
)

// ToolRun is one tool's cost and report outcome on one subject.
type ToolRun struct {
	BuildTime time.Duration
	BuildMem  uint64
	CheckTime time.Duration
	Reports   int
	TPs       int
	FPs       int
	TimedOut  bool
}

// FPRate returns the false-positive rate in percent (0 when no reports).
func (t ToolRun) FPRate() float64 {
	if t.Reports == 0 {
		return 0
	}
	return 100 * float64(t.FPs) / float64(t.Reports)
}

// SubjectResult is one catalogue subject's full comparison row.
type SubjectResult struct {
	Name   string
	KLoC   float64
	Lines  int
	Saber  ToolRun
	Fsam   ToolRun
	Canary ToolRun
	// Paper columns for side-by-side printing (-1 = NA).
	PaperSaberReports, PaperFsamReports, PaperCanaryReports, PaperCanaryFPs int
}

// Experiments drives the evaluation.
type Experiments struct {
	// Timeout bounds each baseline's VFG construction (the paper's 12 h,
	// scaled to the subject sizes in use).
	Timeout time.Duration
	// Checker is the property used for report counting (the paper checks
	// inter-thread use-after-free in §7.2).
	Checker string
	// Out receives progress lines; nil silences them.
	Out io.Writer
}

func (e *Experiments) logf(format string, args ...interface{}) {
	if e.Out != nil {
		fmt.Fprintf(e.Out, format, args...)
	}
}

func (e *Experiments) checker() string {
	if e.Checker == "" {
		return core.CheckUAF
	}
	return e.Checker
}

// lowerSubject generates and lowers a subject (outside any measured
// region: the paper measures analysis cost, not compilation).
func lowerSubject(spec workload.Spec) (*ir.Program, error) {
	src := workload.Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s does not parse: %w", spec.Name, err)
	}
	return ir.Lower(ast, ir.DefaultOptions())
}

// RunSubject measures all three tools on one subject: VFG construction
// cost (Fig. 7) and bug reports with ground-truth classification (Table 1).
func (e *Experiments) RunSubject(p workload.Project) (SubjectResult, error) {
	res := SubjectResult{
		Name: p.Name, KLoC: p.KLoC, Lines: p.Lines,
		PaperSaberReports:  p.PaperSaberReports,
		PaperFsamReports:   p.PaperFsamReports,
		PaperCanaryReports: p.PaperCanaryReports,
		PaperCanaryFPs:     p.PaperCanaryFPs,
	}

	// Baselines.
	for _, tool := range []baseline.Tool{baseline.Saber{}, baseline.Fsam{}} {
		prog, err := lowerSubject(p.Spec)
		if err != nil {
			return res, err
		}
		run, err := e.runBaseline(tool, prog)
		if err != nil {
			return res, err
		}
		if tool.Name() == "saber" {
			res.Saber = run
		} else {
			res.Fsam = run
		}
		e.logf("  %-12s %-6s build=%-12v mem=%-8s reports=%d timeout=%v\n",
			p.Name, tool.Name(), run.BuildTime.Round(time.Millisecond),
			fmtBytes(run.BuildMem), run.Reports, run.TimedOut)
	}

	// Canary.
	prog, err := lowerSubject(p.Spec)
	if err != nil {
		return res, err
	}
	run, err := e.runCanary(prog)
	if err != nil {
		return res, err
	}
	res.Canary = run
	e.logf("  %-12s canary build=%-12v mem=%-8s reports=%d (tp=%d fp=%d)\n",
		p.Name, run.BuildTime.Round(time.Millisecond), fmtBytes(run.BuildMem),
		run.Reports, run.TPs, run.FPs)
	return res, nil
}

func (e *Experiments) runBaseline(tool baseline.Tool, prog *ir.Program) (ToolRun, error) {
	var run ToolRun
	timeout := e.Timeout
	if timeout <= 0 {
		timeout = time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var result *baseline.Result
	m, err := Measure(func() error {
		var berr error
		result, berr = tool.BuildVFG(ctx, prog)
		return berr
	})
	run.BuildTime = m.Time
	run.BuildMem = m.PeakBytes
	if err != nil {
		run.TimedOut = true
		return run, nil // NA row, like the paper's timeouts
	}
	t0 := time.Now()
	reports := baseline.CheckReachability(result.G, e.checker())
	run.CheckTime = time.Since(t0)
	run.Reports = len(reports)
	for _, r := range reports {
		if workload.TruePositive(prog.Inst(r.Source).Fn) {
			run.TPs++
		} else {
			run.FPs++
		}
	}
	return run, nil
}

func (e *Experiments) runCanary(prog *ir.Program) (ToolRun, error) {
	var run ToolRun
	var b *core.Builder
	m, err := Measure(func() error {
		b = core.Build(prog, core.DefaultBuild())
		return nil
	})
	if err != nil {
		return run, err
	}
	run.BuildTime = m.Time
	run.BuildMem = m.PeakBytes
	opt := core.DefaultCheck()
	opt.Checkers = []string{e.checker()}
	t0 := time.Now()
	reports, _ := b.Check(opt)
	run.CheckTime = time.Since(t0)
	run.Reports = len(reports)
	for _, r := range reports {
		if workload.TruePositive(r.Source.Fn) {
			run.TPs++
		} else {
			run.FPs++
		}
	}
	return run, nil
}

// RunAll measures every catalogue subject.
func (e *Experiments) RunAll(projects []workload.Project) ([]SubjectResult, error) {
	out := make([]SubjectResult, 0, len(projects))
	for _, p := range projects {
		e.logf("subject %s (%.0f KLoC scaled to %d lines)\n", p.Name, p.KLoC, p.Lines)
		r, err := e.RunSubject(p)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig8Point is one size-sweep observation of the whole Canary pipeline,
// from source text to reports.
type Fig8Point struct {
	Lines   int
	KLoC    float64
	Time    time.Duration
	PeakMem uint64
	Reports int
	// Stages is the analysis's per-stage split (Result.Trace), in
	// pipeline order; the spans partition Time up to the untraced glue.
	Stages []StageCost
}

// StageSlope is the log–log slope of one stage's wall time against
// program size: 1 means the stage scales linearly.
type StageSlope struct {
	Stage string
	Slope float64
}

// Fig8MaxSlope bounds the end-to-end log–log slope of the sweep. The
// paper's Fig. 8 claims near-linear growth; canary-bench fails the fig8
// experiment when the sweep grows faster than this.
const Fig8MaxSlope = 1.15

// fig8Runs is how many timed analyses each sweep point gets; the fastest
// is kept, so one scheduling hiccup does not skew the fit.
const fig8Runs = 5

// Fig8Result carries the sweep and the linear fits the paper reports.
type Fig8Result struct {
	Points []Fig8Point
	// TimeSlope is ms per KLoC; MemSlope is bytes per KLoC.
	TimeSlope, TimeIntercept, TimeR2 float64
	MemSlope, MemIntercept, MemR2    float64
	// LogLogSlope is the slope of ln(time) against ln(KLoC), end to end;
	// StageSlopes is the same per pipeline stage.
	LogLogSlope float64
	StageSlopes []StageSlope
}

// RunFig8 sweeps Canary's full pipeline (parse through path-sensitive
// checking) over increasing program sizes and fits time and memory against
// size, reproducing the near-linear scaling of Fig. 8.
func (e *Experiments) RunFig8(specs []workload.Spec) (Fig8Result, error) {
	var res Fig8Result
	opt := canary.DefaultOptions()
	opt.Checkers = []string{e.checker()}
	for _, spec := range specs {
		src := workload.Generate(spec)
		// Memory: one analysis on a freshly collected heap.
		var out *canary.Result
		m, err := Measure(func() (err error) {
			out, err = canary.Analyze(src, opt)
			return err
		})
		if err != nil {
			return res, err
		}
		pt := Fig8Point{
			Lines: spec.Lines, KLoC: float64(spec.Lines) / 1000,
			PeakMem: m.PeakBytes, Reports: len(out.Reports),
		}
		// Time: the fastest of fig8Runs further analyses run back to back,
		// each under the GC pacing its predecessor left. On a freshly
		// collected heap the smallest subjects finish inside the runtime's
		// minimum heap without a single GC cycle, which would bend the
		// fit by the collector's start-up rather than by analysis cost.
		for run := 0; run < fig8Runs; run++ {
			t0 := time.Now()
			r, err := canary.Analyze(src, opt)
			wall := time.Since(t0)
			if err != nil {
				return res, err
			}
			if run > 0 && wall >= pt.Time {
				continue
			}
			pt.Time, pt.Stages = wall, nil
			for _, sp := range r.Trace {
				pt.Stages = append(pt.Stages, StageCost{
					Stage: sp.Stage, Wall: sp.Wall, Steps: sp.Steps,
					Budget: sp.Budget, CacheHits: sp.CacheHits,
				})
			}
		}
		res.Points = append(res.Points, pt)
		e.logf("  sweep %6d lines: time=%v mem=%s reports=%d\n",
			pt.Lines, pt.Time.Round(time.Millisecond), fmtBytes(pt.PeakMem), pt.Reports)
	}
	xs := make([]float64, len(res.Points))
	ts := make([]float64, len(res.Points))
	ms := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i] = p.KLoC
		ts[i] = float64(p.Time.Milliseconds())
		ms[i] = float64(p.PeakMem)
	}
	res.TimeSlope, res.TimeIntercept, res.TimeR2 = FitLinear(xs, ts)
	res.MemSlope, res.MemIntercept, res.MemR2 = FitLinear(xs, ms)
	res.LogLogSlope = logLogSlope(res.Points, func(p Fig8Point) time.Duration { return p.Time })
	for _, stage := range pipeline.StageNames() {
		res.StageSlopes = append(res.StageSlopes, StageSlope{
			Stage: stage,
			Slope: logLogSlope(res.Points, func(p Fig8Point) time.Duration {
				for _, sc := range p.Stages {
					if sc.Stage == stage {
						return sc.Wall
					}
				}
				return 0
			}),
		})
	}
	return res, nil
}

// logLogSlope fits ln(wall) against ln(KLoC) over the points and returns
// the slope. Points with no measurable wall time are left out.
func logLogSlope(points []Fig8Point, wall func(Fig8Point) time.Duration) float64 {
	var xs, ys []float64
	for _, p := range points {
		if w := wall(p); w > 0 && p.KLoC > 0 {
			xs = append(xs, math.Log(p.KLoC))
			ys = append(ys, math.Log(float64(w)))
		}
	}
	slope, _, _ := FitLinear(xs, ys)
	return slope
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
