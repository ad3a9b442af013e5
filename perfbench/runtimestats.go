package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	heapLiveBytes = "/gc/heap/live:bytes"
	allocBytes    = "/gc/heap/allocs:bytes"
	gcCycles      = "/gc/cycles/total:gc-cycles"
	gcCPU         = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU      = "/cpu/classes/total:cpu-seconds"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it is unreadable). On a virtual machine, stolen
// ticks are time the host ran something else on our CPUs; the run prints
// their share so that a noisy host shows beside the figures it skewed.
func cpuTicks() (steal, total float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	// "cpu user nice system idle iowait irq softirq steal guest ...";
	// guest time is already counted in user.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for _, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		steal = v
	}
	return steal, total
}

// readRuntime samples the named runtime/metrics values.
func readRuntime(names ...string) map[string]float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(map[string]float64, len(names))
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// heapLive is the heap the last GC cycle found reachable: the memory the
// process needs, without the collector's slack, which grows with whatever
// else is live (such as the benchmark's own input pools).
func heapLive() uint64 { return uint64(readRuntime(heapLiveBytes)[heapLiveBytes]) }

// opsDone counts the operations the measured loop has completed. Every
// runner adds one per operation; the heap sampler windows on it.
var opsDone atomic.Int64

// heapWindow sets what peak_heap_mib covers: the first count windows of
// ops operations each of the measured loop. A fixed number of operations,
// not a fixed time, so that a faster system, which accumulates more state
// (daemon job records, result-cache entries, warm stores) in the same
// seconds, is measured at the same point of its history.
type heapWindow struct{ ops, count int }

// heapSampler tracks the live heap over the windows of a heapWindow, as
// the peak of each window.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peaks []uint64
}

// startHeapSampler resets opsDone and polls every 2 ms until the last
// window closes. The live heap changes only when a GC cycle ends, and
// cycles of the measured operations are further apart than that, so the
// poll sees every cycle's value.
func startHeapSampler(win heapWindow) *heapSampler {
	opsDone.Store(0)
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		cur := 0
		peak := heapLive()
		for {
			select {
			case <-h.stopc:
				// A part too short for one whole window reports the
				// operations it did complete.
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, peak)
				}
				return
			case <-tick.C:
				if b := heapLive(); b > peak {
					peak = b
				}
				if w := min(int(opsDone.Load())/win.ops, win.count); w > cur {
					h.peaks = append(h.peaks, peak)
					cur = w
					peak = heapLive()
				}
				if cur == win.count {
					return
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median of the window peaks: the
// typical peak of the workload's working set, which unlike the single
// largest sample does not hinge on where one GC cycle happened to end.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return median(h.peaks)
}
