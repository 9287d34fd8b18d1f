// Benchmark harness: ablation benchmarks for the design decisions called
// out in DESIGN.md, plus the event-queue, sweep-engine, superstep and
// public-API benchmarks. The per-figure/table benchmarks live in
// cmd/qpbench, which runs every registered experiment and gates its
// allocation and simulated-event counts against QPBENCH_baseline.json.
package quantpar_test

import (
	"container/heap"
	"fmt"
	"testing"

	"quantpar"
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/bsplib"
	"quantpar/internal/calibrate"
	"quantpar/internal/comm"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
	"quantpar/internal/sim"
)

// --- ablation benchmarks (design decisions of DESIGN.md Section 5) ---

// BenchmarkAblationPatternCache measures the SIMD pattern memoization: the
// same MasPar bitonic run with and without the cache.
func BenchmarkAblationPatternCache(b *testing.B) {
	m, err := machine.Build("maspar")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := bitonic.Run(m, bitonic.Config{
					KeysPerProc: 16, Variant: bitonic.Word, Seed: 1,
					DisablePatternCache: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStagger quantifies what the ordered-send-list design
// buys: the identical matmul with convergent versus staggered schedules on
// the CM-5 (the simulated-time gap is the Fig 4 effect).
func BenchmarkAblationStagger(b *testing.B) {
	m, err := machine.Build("cm5")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []matmul.Variant{matmul.BSPUnstaggered, matmul.BSPStaggered} {
		b.Run(v.String(), func(b *testing.B) {
			var simT float64
			for i := 0; i < b.N; i++ {
				res, err := matmul.Run(m, matmul.Config{N: 64, Q: 4, Variant: v, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				simT = res.Run.Time
			}
			b.ReportMetric(simT, "sim-us")
		})
	}
}

// BenchmarkAblationGCelBuffer compares the GCel h-h permutation with the
// finite receive buffer enabled (default) and effectively unlimited,
// showing the buffer is what produces the Fig 7 blow-up.
func BenchmarkAblationGCelBuffer(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		buffer int
	}{{"finite-256", 256}, {"unlimited", 0}} {
		p := mesh.DefaultParams()
		p.RecvBuffer = cfg.buffer
		r, err := mesh.New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			var simT float64
			base := sim.NewRNG(7)
			for i := 0; i < b.N; i++ {
				s := calibrate.MeasureSteps(r, func(rng *sim.RNG) []*comm.Step {
					return calibrate.HHPermutation(r.Procs(), 512, 4, 0, rng)
				}, 2, base)
				simT = s.Mean
			}
			b.ReportMetric(simT/512, "sim-us/msg")
		})
	}
}

// BenchmarkAblationGCelOverheadSplit shows the receiver-dominated overhead
// split is what produces the multinode-scatter discount: with the split
// inverted (sender-dominated), the discount collapses.
func BenchmarkAblationGCelOverheadSplit(b *testing.B) {
	for _, cfg := range []struct {
		name         string
		osend, orecv float64
	}{{"receiver-heavy", 470, 4060}, {"sender-heavy", 4060, 470}} {
		p := mesh.DefaultParams()
		p.OSend, p.ORecv = cfg.osend, cfg.orecv
		r, err := mesh.New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			var ratio float64
			base := sim.NewRNG(9)
			for i := 0; i < b.N; i++ {
				sc := calibrate.Measure(r, func(rng *sim.RNG) *comm.Step {
					return calibrate.MultinodeScatter(r.Procs(), 8, 32, 4, rng)
				}, 2, base.Split(1))
				fr := calibrate.Measure(r, func(rng *sim.RNG) *comm.Step {
					return calibrate.FullHRelation(r.Procs(), 32, 4, rng)
				}, 2, base.Split(2))
				ratio = fr.Mean / sc.Mean
			}
			b.ReportMetric(ratio, "scatter-discount")
		})
	}
}

// BenchmarkAblationMasParWaves contrasts the wave-based word router against
// a hypothetical conflict-free router (TByte-only waves) on random
// permutations: the gap is what the greedy circuit conflicts cost, i.e.
// the cube-permutation discount of Figs 5/10.
func BenchmarkAblationMasParWaves(b *testing.B) {
	r, err := maspar.New(maspar.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(3)
	random := calibrate.RandomPermutation(r.Procs(), 4, rng)
	cube := calibrate.CubePermutation(r.Procs(), 8, 4)
	b.Run("random", func(b *testing.B) {
		var simT float64
		for i := 0; i < b.N; i++ {
			simT = r.Route(random, rng).Elapsed
		}
		b.ReportMetric(simT, "sim-us")
	})
	b.Run("cube", func(b *testing.B) {
		var simT float64
		for i := 0; i < b.N; i++ {
			simT = r.Route(cube, rng).Elapsed
		}
		b.ReportMetric(simT, "sim-us")
	})
}

// --- event-kernel and sweep-engine benchmarks ---

// legacyEvent and legacyQueue reproduce the pre-optimization EventQueue: a
// container/heap binary heap boxing events through the `any`-typed
// interface, kept here as the comparison baseline for BenchmarkEventQueue.
type legacyEvent struct {
	at   sim.Time
	seq  int
	data any
}

type legacyHeap []legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(legacyEvent)) }
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// eventQueueWorkload is the steady-state shape the routers produce: a
// standing population of pending events with interleaved pushes and pops.
const eventQueuePopulation = 1024

func BenchmarkEventQueue(b *testing.B) {
	times := make([]sim.Time, 4*eventQueuePopulation)
	rng := sim.NewRNG(11)
	for i := range times {
		times[i] = sim.Time(rng.Float64() * 1e6)
	}

	b.Run("legacy-binary-heap", func(b *testing.B) {
		b.ReportAllocs()
		h := make(legacyHeap, 0, eventQueuePopulation+1)
		seq := 0
		push := func(at sim.Time) {
			heap.Push(&h, legacyEvent{at: at, seq: seq})
			seq++
		}
		for i := 0; i < eventQueuePopulation; i++ {
			push(times[i%len(times)])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(times[i%len(times)])
			_ = heap.Pop(&h).(legacyEvent)
		}
	})

	b.Run("inlined-4ary-heap", func(b *testing.B) {
		b.ReportAllocs()
		var q sim.EventQueue
		for i := 0; i < eventQueuePopulation; i++ {
			q.Push(sim.Event{At: times[i%len(times)]})
		}
		b.ResetTimer()
		// Pop-then-reschedule keeps simulated time monotone, as the real
		// engines do (EventQueue rejects pushes before the last pop).
		for i := 0; i < b.N; i++ {
			e := q.Pop()
			e.At += times[i%len(times)]
			q.Push(e)
		}
	})
}

// BenchmarkParallelSweep runs the Fig 1 calibration grid (the tentpole
// workload of the parsweep engine) serially and with four workers. The two
// produce byte-identical fits; the ratio of their wall clocks is the
// speedup. On a single-core host the j4 case degenerates to serial
// throughput plus scheduling noise.
func BenchmarkParallelSweep(b *testing.B) {
	hs := []int{1, 2, 4, 8, 16, 32}
	const trials = 8
	factory := func() (comm.Router, error) { return maspar.New(maspar.DefaultParams()) }
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			sw := calibrate.Sweeper{Workers: workers, New: factory}
			for i := 0; i < b.N; i++ {
				if _, _, err := sw.FitGL(calibrate.StyleOneToH, hs, 4, trials, sim.NewRNG(1996)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSuperstep measures the raw engine overhead: a P=64
// program doing nothing but barriers.
func BenchmarkEngineSuperstep(b *testing.B) {
	m, err := machine.Build("cm5")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, err := bsplib.Run(m, func(ctx *bsplib.Context) {
			for s := 0; s < 10; s++ {
				ctx.Sync()
			}
		}, bsplib.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIQuickstart exercises the facade end to end, the same
// path as examples/quickstart.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	m, err := quantpar.NewCM5()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := quantpar.RunMatMul(m, quantpar.MatMulConfig{
			N: 64, Q: 4, Variant: quantpar.MatMulBPRAM, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
