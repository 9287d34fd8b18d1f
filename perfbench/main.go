// Command perfbench is the repository benchmark. It drives the layers of
// the simulator (experiments, bsplib, phase, netsim/sim, faults, runstore,
// machine) through their Go API from one process, reports host time end to
// end or split by layer, and checks on every run that the simulated outputs
// are unchanged. See README.md for the workloads and the metric map.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", goldenSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 10, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag))
	}
	traced := *traceFlag == 1
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fail(err)
	}
	s, spans, err := measure(w, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		fail(err)
	}
	if traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeChromeTrace(path, spans); err != nil {
			fail(fmt.Errorf("writing trace: %w", err))
		}
	}
	out, err := json.Marshal(summarize(s, traced))
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as a user sees them.
var endToEnd = []metricDef{
	{"wall_s", "s"},      // wall time of a timed pass: the sum of its ops' medians
	{"cpu_s", "s"},       // user+system CPU time of a timed pass, likewise
	{"setup_s", "s"},     // median time of one set-up (the three times scaled to nominal host speed)
	{"alloc_mb", "MB"},   // median heap bytes allocated by a timed pass
	{"max_rss_mb", "MB"}, // median peak resident set size of a timed pass
}

// perLayer lists the metrics of a traced run, each the median over the
// traced passes. A metric a workload cannot observe reads 0; README.md
// maps every metric to its layer and the workloads it is measured on.
func perLayer() []metricDef {
	defs := []metricDef{
		{"bsplib.supersteps", "count"},
		{"bsplib.comm_steps", "count"},
		{"bsplib.self_ms", "ms"},
		{"bsplib.self_us_per_superstep", "us"},
	}
	for _, e := range engines {
		p := "netsim." + e
		defs = append(defs, metricDef{p + ".route_ms", "ms"}, metricDef{p + ".calls", "count"},
			metricDef{p + ".events", "count"}, metricDef{p + ".ns_per_event", "ns"})
	}
	defs = append(defs,
		metricDef{"phase.hits", "count"},
		metricDef{"phase.misses", "count"},
		metricDef{"phase.lookups", "count"},
		metricDef{"phase.hit_ratio", "ratio"},
		metricDef{"phase.self_ms", "ms"},
		metricDef{"phase.self_ns_per_call", "ns"},
	)
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + ".ms", "ms"})
	}
	return append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"machine.builds", "count"},
		metricDef{"faults.retries", "count"},
		metricDef{"faults.acks", "count"},
		metricDef{"faults.dropped", "count"},
		metricDef{"runstore.encode_ms", "ms"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"fail_ratio", "ratio"},
	)
}

// counters are the process-global counters; a pass is charged with the
// difference of two readings.
type counters struct {
	hits, misses, events, builds int64
	gcCycles                     uint32
	allocBytes                   uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		hits: phase.Hits(), misses: phase.Misses(), events: phase.SimEvents(), builds: machine.Builds(),
		gcCycles: ms.NumGC, allocBytes: ms.TotalAlloc,
	}
}

func (c counters) minus(b counters) counters {
	return counters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, events: c.events - b.events,
		builds: c.builds - b.builds, gcCycles: c.gcCycles - b.gcCycles, allocBytes: c.allocBytes - b.allocBytes,
	}
}

// instant is a reading of the wall clock and the process's CPU time.
type instant struct {
	wall time.Time
	cpu  time.Duration
}

func now() instant { return instant{time.Now(), cpuTime()} }

func (i instant) elapsed() (wall, cpu time.Duration) {
	return time.Since(i.wall), cpuTime() - i.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's record of the process's peak resident
// set (VmHWM) to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads the process's peak resident set since the last reset.
func peakRSSBytes() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// samples holds a run's raw measurements, in seconds and megabytes.
type samples struct {
	elasticity            float64   // the workload's probeElasticity
	probeWalls, probeCPUs []float64 // one probe before each set-up and each pass
	setups                []float64
	opWalls, opCPUs       map[string][]float64 // correct ops of untraced passes, by op
	walls, allocs, rss    []float64            // untraced passes
	tracedWalls           []float64
	layers                []map[string]float64 // per-layer metrics per traced pass
	attempted, failed     int
	// counts are the exact counts of the first pass, and countsOK whether
	// every later pass repeated them.
	counts   []int64
	countsOK bool
}

// measure sets the workload up setupReps times, then runs timed passes
// until the time budget is spent, at least one pass. A traced run
// alternates untraced and traced passes, at least one of each, so that the
// tracing overhead is measured within one process; its untraced passes
// serve only that ratio and the exact-count comparison. Every pass is
// checked, and every pass must repeat the first pass's exact counts.
func measure(w workload, budget time.Duration, traced bool) (*samples, []*tracer, error) {
	w.configure()
	s := &samples{elasticity: w.probeElasticity(), countsOK: true,
		opWalls: map[string][]float64{}, opCPUs: map[string][]float64{}}
	for i := 0; i < w.setupReps(); i++ {
		s.probe()
		t0 := time.Now()
		ops, err := w.setUp()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		s.count(ops, false)
	}

	var tracers []*tracer
	var last time.Duration
	start := time.Now()
	for pass := 0; ; pass++ {
		// Stop once the next pass would probably end more than half a
		// pass past the budget, so a run of long passes measures about
		// the time it was given.
		done := len(s.walls) >= 1
		if traced {
			done = done && len(s.tracedWalls) >= 1
		}
		if done && time.Since(start)+last/2 >= budget {
			break
		}
		var tr *tracer
		if traced && pass%2 == 1 {
			tr = newTracer()
		}
		s.probe()
		// Every pass starts from the same resident set, with the memory
		// earlier passes freed returned to the operating system, so that
		// its peak is its own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		before, t0 := readCounters(), time.Now()
		p := w.run(tr)
		wall := time.Since(t0)
		last = wall
		d := readCounters().minus(before)
		rss, err := peakRSSBytes()
		if err != nil {
			return nil, nil, err
		}
		w.check(tr, p, d)
		s.count(p.ops, tr == nil)
		if s.counts == nil {
			s.counts = p.counts
		} else if !slices.Equal(s.counts, p.counts) {
			s.countsOK = false
			fmt.Fprintf(os.Stderr, "perfbench: pass %d counts %v, first pass %v\n", pass, p.counts, s.counts)
		}
		if tr == nil {
			s.walls = append(s.walls, wall.Seconds())
			s.allocs = append(s.allocs, float64(d.allocBytes)/1e6)
			s.rss = append(s.rss, rss/1e6)
			continue
		}
		s.tracedWalls = append(s.tracedWalls, wall.Seconds())
		s.layers = append(s.layers, layerMetrics(tr, p, d))
		tracers = append(tracers, tr)
	}
	return s, tracers, nil
}

// probe collects garbage, so that no collection left over from earlier
// work runs inside the probe or the timed region after it, and times the
// probe kernel once.
func (s *samples) probe() {
	runtime.GC()
	wall, cpu := probe()
	s.probeWalls = append(s.probeWalls, wall.Seconds())
	s.probeCPUs = append(s.probeCPUs, cpu.Seconds())
}

// count tallies checked ops, keeping the times of the correct ones when
// they are timing samples.
func (s *samples) count(ops []opResult, timed bool) {
	for _, op := range ops {
		s.attempted++
		switch {
		case op.err != nil:
			s.failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", op.err)
		case timed:
			s.opWalls[op.name] = append(s.opWalls[op.name], op.wall.Seconds())
			s.opCPUs[op.name] = append(s.opCPUs[op.name], op.cpu.Seconds())
		}
	}
}

// summarize turns a run's samples into the printed result. The time of a
// pass is the sum over its ops of each op's median over the passes: host
// stalls come in bursts shorter than a suite pass, and a per-op median
// discards a burst without discarding the rest of the pass. Every other
// metric is a median over the passes, peak resident set included. The
// end-to-end times are scaled to the nominal host speed by the run's
// median probe (see probe.go), wall times by its wall time and CPU time by
// its CPU time, each ratio raised to the workload's probe elasticity. The
// run is correct only if no op failed and every pass saw the same exact
// counts.
func summarize(s *samples, traced bool) *result {
	res := &result{Correct: s.countsOK && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metric{}}
	if !traced {
		probeWall, probeCPU := median(s.probeWalls), median(s.probeCPUs)
		wallScale := math.Pow(probeNominal.Seconds()/probeWall, s.elasticity)
		cpuScale := math.Pow(probeNominal.Seconds()/probeCPU, s.elasticity)
		wall, cpu, setup := sumOfMedians(s.opWalls), sumOfMedians(s.opCPUs), median(s.setups)
		fmt.Fprintf(os.Stderr, "perfbench: probe median %.2f ms wall, %.2f ms CPU; unscaled wall %.4f s, cpu %.4f s, setup %.4f s\n",
			probeWall*1e3, probeCPU*1e3, wall, cpu, setup)
		vals := map[string]float64{
			"wall_s":     wall * wallScale,
			"cpu_s":      cpu * cpuScale,
			"setup_s":    setup * wallScale,
			"alloc_mb":   median(s.allocs),
			"max_rss_mb": median(s.rss),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res
	}
	for _, m := range perLayer() {
		vals := make([]float64, len(s.layers))
		for i, l := range s.layers {
			vals[i] = l[m.name]
		}
		res.Metrics[m.name] = metric{median(vals), m.unit}
	}
	res.Metrics["trace.overhead_ratio"] = metric{median(s.tracedWalls) / median(s.walls), "ratio"}
	res.Metrics["fail_ratio"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	return res
}

// layerMetrics derives one traced pass's per-layer metrics from its spans,
// the global counter deltas and the workload's own figures.
func layerMetrics(tr *tracer, p *passOutput, d counters) map[string]float64 {
	m := map[string]float64{}
	for k, v := range p.layers {
		m[k] = v
	}
	tot := tr.totals()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if lt := tot["bsplib.run"]; lt != nil {
		m["bsplib.self_ms"] = ms(lt.self)
		if ss := m["bsplib.supersteps"]; ss > 0 {
			m["bsplib.self_us_per_superstep"] = ms(lt.self) * 1e3 / ss
		}
	}
	for _, e := range engines {
		lt := tot["netsim."+e+".route"]
		if lt == nil {
			continue
		}
		p := "netsim." + e
		m[p+".route_ms"] = ms(lt.wall)
		m[p+".calls"] = float64(lt.calls)
		m[p+".events"] = float64(lt.events)
		if lt.events > 0 {
			m[p+".ns_per_event"] = float64(lt.wall) / float64(lt.events)
		}
	}
	m["phase.hits"] = float64(d.hits)
	m["phase.misses"] = float64(d.misses)
	m["phase.lookups"] = float64(d.hits + d.misses)
	if d.hits+d.misses > 0 {
		m["phase.hit_ratio"] = float64(d.hits) / float64(d.hits+d.misses)
	}
	if lt := tot["phase.route"]; lt != nil {
		m["phase.self_ms"] = ms(lt.self)
		m["phase.self_ns_per_call"] = float64(lt.self) / float64(lt.calls)
	}
	for _, id := range experiments.IDs() {
		if lt := tot["experiments."+id]; lt != nil {
			m["experiments."+id+".ms"] = ms(lt.wall)
		}
	}
	if lt := tot["runstore.encode"]; lt != nil {
		m["runstore.encode_ms"] = ms(lt.wall)
	}
	m["machine.builds"] = float64(d.builds)
	m["go.gc_cycles"] = float64(d.gcCycles)
	return m
}

// sumOfMedians returns the sum over ops of each op's median time.
func sumOfMedians(times map[string][]float64) float64 {
	ops := make([]string, 0, len(times))
	for op := range times {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	sum := 0.0
	for _, op := range ops {
		sum += median(times[op])
	}
	return sum
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
