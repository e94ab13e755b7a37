// Command perfbench is the SDNFV open-loop benchmark. It drives the real
// engine (dataplane, flowtable, NFs, control/controller/app, portio)
// from one process with a sleep-paced generator offering 32-frame
// bursts through Host.IngestBurst, and times every frame from when it
// was due to when it reaches the egress sink.
//
//	go run . --workload fastpath --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// wraps every layer boundary the benchmark calls into and reports the
// per-layer metrics, the per-frame stage budget and the tracing
// overhead. Every run checks the engine's outputs; the last line of
// standard output is one JSON object with the verdict and the metrics.
// See README.md for the workloads, metrics and limits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// units of every metric the benchmark prints.
var units = map[string]string{
	"max_rate_kpps":    "kpps",
	"overload_kpps":    "kpps",
	"p10_us":           "us",
	"first_pkt_p10_us": "us",
	"heap_peak_mb":     "MB",
	"setup_s":          "s",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "ns_per_frame"):
		return "ns/frame"
	case strings.HasSuffix(name, "ns_per_pkt"):
		return "ns/pkt"
	case strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_ns_mean"):
		return "ns"
	case strings.HasSuffix(name, "batch_mean"):
		return "pkts/batch"
	case strings.HasSuffix(name, "loss_ratio"):
		return "ratio"
	case name == "control.reqs_per_resolve":
		return "reqs/batch"
	case name == "app.rules_per_flow":
		return "rules/flow"
	case name == "portio.frames_per_ingest":
		return "frames/call"
	case name == "runtime.allocs_per_pkt":
		return "allocs/pkt"
	}
	return "count"
}

// heapPeak samples the live heap (as marked by the latest GC) every
// 10ms while on. Live bytes, unlike allocated bytes, do not depend on
// when the collector happens to run. It is off during the ladder and
// overload trials, whose buffers grow with the rate the system reaches.
type heapPeak struct {
	on   atomic.Bool
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	p := &heapPeak{stop: make(chan struct{})}
	p.on.Store(true)
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

// measure switches sampling on or off; switching on first collects, so
// the live figure describes the heap from then on.
func (p *heapPeak) measure(on bool) {
	if on {
		runtime.GC()
	}
	p.on.Store(on)
}

func (p *heapPeak) sample() {
	if !p.on.Load() {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	p.mu.Lock()
	if v := s[0].Value.Uint64(); v > p.peak {
		p.peak = v
	}
	p.mu.Unlock()
}

func (p *heapPeak) end() float64 {
	close(p.stop)
	p.wg.Wait()
	return float64(p.peak) / (1 << 20)
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, the last rig is measured.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fastpath, flowsetup, appaware or wire_udp")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics)")
	out := fs.String("out", ".bench_build/perfbench", "directory for result records and spans")
	commit := fs.String("commit", "unknown", "revision of the measured source, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1
	heap := startHeapPeak()

	var r *rig
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		r, err = setupRig(w, *seed, traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup %s: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d setups_s %v\n", w.name, *seed, *seconds, *trace, setups)

	b := newBench(w, r, *seconds, stdout)
	b.heap = heap
	var m map[string]float64
	if traced {
		m = b.traced()
	} else {
		m = b.e2e()
	}
	r.close()
	peak := heap.end()
	if !traced {
		m["heap_peak_mb"] = peak
		m["setup_s"] = median(setups)
		sums, _ := b.record["summaries"].(map[string]summary)
		sums["setup_s"] = summarize(setups)
		sums["heap_peak_mb"] = summarize([]float64{peak})
	}

	correct := len(b.errors) == 0
	for _, e := range b.errors {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", e)
	}
	if err := b.writeRecord(*out, *name, *seed, *trace, *commit, m, correct); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-s%d.csv", w.name, *seed))
		if err := r.t.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if inv, _ := b.record["invalid"].(bool); inv {
		fmt.Fprintln(stderr, "perfbench: run invalid: the generator fell behind its schedule")
		return 3
	}

	metricsOut := map[string]any{}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: metric %s is %v\n", k, v)
			v = 0
		}
		fmt.Fprintf(stdout, "metric %-32s %14.4f %s\n", k, v, unitOf(k))
		metricsOut[k] = map[string]any{"value": v, "unit": unitOf(k)}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metricsOut,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupRig sets w up, wrapped for tracing when traced.
func setupRig(w workload, seed int64, traced bool) (*rig, error) {
	var t *tracer
	if traced {
		// The rig creates the sink the tracer attributes frames to; the
		// wrappers only read it once tracing is switched on.
		t = newTracer(nil)
	}
	r, err := w.setup(seed, t)
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.sink = r.sink
	}
	return r, nil
}

// writeRecord keeps the run's full result: raw per-trial samples, the
// summaries, the revision and a machine fingerprint.
func (b *bench) writeRecord(dir, name string, seed int64, trace int, commit string, m map[string]float64, correct bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.record["workload"] = name
	b.record["why"] = b.w.why
	b.record["seed"] = seed
	b.record["trace"] = trace
	b.record["seconds"] = b.seconds
	b.record["commit"] = commit
	b.record["machine"] = fingerprint()
	b.record["limits"] = map[string]any{
		"nominal_kpps": b.lim.nominalKpps, "overload_kpps": b.lim.overloadKpps,
		"p99_limit_us": b.lim.p99LimitUs, "loss_limit": b.lim.lossLimit,
		"ladder":             fmt.Sprintf("%g kpps x %g^k, k=0..%d", b.lim.ladderBase, b.lim.ladderRatio, b.lim.ladderRungs-1),
		"first_packet_limit": b.lim.firstPkt, "gen_tolerance_p99_us": genToleranceUs,
	}
	b.record["metrics"] = m
	b.record["correct"] = correct
	b.record["errors"] = b.errors
	b.record["attempted"] = b.attempted
	b.record["failed"] = b.failed
	data, err := json.MarshalIndent(b.record, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", name, seed, trace))
	fmt.Fprintf(b.log, "record written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

func fingerprint() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
