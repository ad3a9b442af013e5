package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the result line must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every declared workload at smoke size, plain and traced,
// and checks that its oracle passes and that it emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]string)
	for _, m := range decl.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := make(map[string]string)
	for _, m := range decl.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, wl := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: wl.Name,
				seed:     7,
				seconds:  2 * time.Second,
				spansDir: t.TempDir(),
				size:     smokeSizes,
			}
			var res *result
			if trace {
				res, err = runTraced(cfg)
			} else {
				var p *partResult
				if p, err = measure(cfg); err == nil {
					res, err = aggregate([]partResult{*p})
				}
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
				}
			}
		}
	}
}
