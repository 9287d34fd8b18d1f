// Command qpbench runs the figure/table experiments as in-process
// benchmarks, emits a canonical qpbench/v1 snapshot keyed by experiment ID,
// and diffs ns/op, B/op, allocs/op, and sim-events/op against the committed
// QPBENCH_baseline.json — a benchstat-style regression gate for the
// zero-copy message pipeline and the phase memo cache.
//
// Usage:
//
//	qpbench                                # benchmark every experiment
//	qpbench -quick                         # table1 + fig03 + fig04 + fig07 only
//	qpbench -o QPBENCH_baseline.json       # write the canonical snapshot
//	qpbench -quick -diff QPBENCH_baseline.json
//	                                       # run and compare against the baseline
//	qpbench -ids fig03,fig04               # explicit experiment subset
//
// Each benchmark is one iteration sampled three times, and every metric
// keeps its per-sample minimum (the benchstat convention: the
// least-interfered-with run is the honest one). The phase memo store is
// reset at the start of each benchmark, so sample one runs cold and the
// later samples replay it: the reported sim-events/op — events actually
// simulated, cache replays counting zero — is the steady-state warm count,
// deterministic and independent of which benchmarks ran earlier in the
// process. Sweeps run on one worker, because every extra parsweep worker
// builds its own machine and would make allocs/op a function of the host's
// core count rather than of the code.
//
// An allocs/op increase beyond 10% or any sim-events/op increase (the count
// is deterministic, so any increase is real) is a blocking regression:
// qpbench prints it and exits 1. Wall-clock ns/op and B/op drift is
// reported as advisory only, because single-iteration timings on shared CI
// hardware are too noisy to gate on. Experiments missing from the baseline
// are reported and not gated.
//
// qpbench exits 0 on success, 1 on a benchmark failure or a blocking
// regression, and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"quantpar/internal/experiments"
	"quantpar/internal/phase"
)

// quickIDs is the -quick subset CI gates: Table 1 calibration and the two
// matmul figures whose allocation churn motivated the zero-copy pipeline,
// plus fig07, whose memo-bypassed desync study keeps the sim-events/op gate
// watching an engine that actually simulates.
var quickIDs = []string{"table1", "fig03", "fig04", "fig07"}

func main() {
	fs := flag.NewFlagSet("qpbench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "run only the quick subset ("+strings.Join(quickIDs, ", ")+")")
	ids := fs.String("ids", "", "comma-separated experiment IDs to benchmark (default: all)")
	out := fs.String("o", "", "write the canonical qpbench JSON snapshot to this file")
	scale := fs.String("scale", "quick", "sweep scale: quick or full")
	diff := fs.String("diff", "", "baseline snapshot to compare against")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "qpbench: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	}
	// testing.Benchmark reads its run length from the test flags, which
	// live on the default flag set and are never parsed from the command
	// line: one iteration per sample, always.
	testing.Init()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		panic(err)
	}

	ctx := experiments.DefaultContext()
	ctx.Workers = 1 // each parsweep worker builds its own machine; see the package doc
	switch *scale {
	case "quick":
	case "full":
		ctx.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "qpbench: unknown -scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}

	names := experiments.IDs()
	switch {
	case *ids != "":
		names = strings.Split(*ids, ",")
	case *quick:
		names = quickIDs
	}
	selected := make([]experiments.Experiment, 0, len(names))
	for _, id := range names {
		e, err := experiments.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
		selected = append(selected, e)
	}

	report := Report{Format: FormatV1}
	failed := false
	for _, e := range selected {
		rec, err := runBenchmark(e, ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Println(rec.BenchLine())
		report.Benchmarks = append(report.Benchmarks, rec)
	}

	if *out != "" {
		if err := os.WriteFile(*out, report.Encode(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
	}

	regressed := false
	if *diff != "" {
		data, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
		base, err := ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpbench: %s: %v\n", *diff, err)
			os.Exit(2)
		}
		var lines []string
		lines, regressed = Diff(report.Benchmarks, base)
		for _, l := range lines {
			fmt.Printf("diff %s: %s\n", *diff, l)
		}
	}

	if failed || regressed {
		os.Exit(1)
	}
}

// runBenchmark measures one experiment: each iteration replays the
// experiment, shape-check failures abort, and the mean simulated
// microseconds per data point and the simulated-event count ride along as
// extra metrics. The benchmark is sampled three times, keeping every
// metric's per-sample minimum; the phase memo store is cleared once up
// front, so the first sample fills it, the later samples replay it, and the
// sim-events/op minimum is the deterministic steady-state count —
// unaffected by whatever the process cached before this benchmark.
func runBenchmark(e experiments.Experiment, ctx *experiments.Context) (Record, error) {
	const samples = 3
	var rec Record
	phase.ResetStore()
	for s := 0; s < samples; s++ {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var simTime float64
			var points int
			ev0 := phase.SimEvents()
			for i := 0; i < b.N; i++ {
				o, err := e.Run(ctx)
				if err != nil {
					runErr = err
					b.Fatal(err)
				}
				if !o.Passed() {
					for _, c := range o.Checks {
						if !c.Pass {
							runErr = fmt.Errorf("%s: %s: %s", e.ID, c.Name, c.Detail)
							b.Fatal(runErr)
						}
					}
				}
				simTime = 0
				points = 0
				for _, s := range o.Series {
					for _, m := range s.Measured {
						simTime += m
						points++
					}
				}
			}
			if points > 0 {
				b.ReportMetric(simTime/float64(points), "sim-us/pt")
			}
			b.ReportMetric(float64(phase.SimEvents()-ev0)/float64(b.N), "sim-events/op")
		})
		if runErr != nil {
			return Record{}, runErr
		}
		if r.N == 0 {
			return Record{}, fmt.Errorf("benchmark produced no iterations")
		}
		m := map[string]float64{
			"ns/op":     float64(r.NsPerOp()),
			"B/op":      float64(r.AllocedBytesPerOp()),
			"allocs/op": float64(r.AllocsPerOp()),
		}
		for unit, v := range r.Extra {
			m[unit] = v
		}
		if s == 0 {
			rec = Record{Name: e.ID, Iterations: r.N, Metrics: m}
			continue
		}
		for unit, v := range m {
			if old, ok := rec.Metrics[unit]; !ok || v < old {
				rec.Metrics[unit] = v
			}
		}
	}
	return rec, nil
}

// BenchLine renders the record in the standard `go test -bench` shape.
func (r Record) BenchLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s\t%8d", r.Name, r.Iterations)
	for _, unit := range []string{"ns/op", "sim-us/pt", "sim-events/op", "B/op", "allocs/op"} {
		if v, ok := r.Metrics[unit]; ok {
			fmt.Fprintf(&sb, "\t%s %s", formatValue(v), unit)
		}
	}
	return sb.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// sortedUnits returns the record's metric units in a stable order.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
