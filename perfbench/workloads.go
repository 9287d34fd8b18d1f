package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"quantpar/internal/algorithms/apsp"
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/bsplib"
	"quantpar/internal/comm"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends" // registers the platforms
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// goldenSeed is qpexp's default seed, the one the golden artifacts were
// produced with.
const goldenSeed = 1996

// opResult is one measured operation: an experiment run or an algorithm
// run. err is set when the operation failed or produced a wrong output.
type opResult struct {
	name      string
	wall, cpu time.Duration
	err       error
}

// passOutput is what a workload hands back for one pass.
type passOutput struct {
	ops []opResult
	// counts must repeat exactly on every pass of a run, traced or not.
	counts []int64
	// layers holds the workload's own per-layer metrics of a traced pass;
	// the measurement loop adds the span-derived ones.
	layers map[string]float64
}

// workload is one benchmark scenario. setUp prepares everything the timed
// passes need, returning the checked ops it ran, and is repeated to time
// it; run is one timed pass, traced when tr is non-nil; check verifies the
// pass's outputs outside the timed region, recording failures in the ops.
type workload interface {
	setUp() ([]opResult, error)
	run(tr *tracer) *passOutput
	check(tr *tracer, p *passOutput, d counters)
	setupReps() int
	// configure applies the workload's process settings.
	configure()
	// probeElasticity is how much the workload's times move, on a log
	// scale, per unit of movement of the probe's, when the host's speed
	// drifts (see probe.go).
	probeElasticity() float64
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "suite-cold":
		return newSuiteCold(seed), nil
	case "apsp-maspar-warm":
		// Set-up fills the memo, so timed runs replay every
		// communication step and the engines stay idle.
		return newDirect(seed, apspOp)
	case "engine-nomemo":
		return newDirect(seed, bitonicOp, matmulOp)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"suite-cold", "apsp-maspar-warm", "engine-nomemo"}

// opSeed derives the i-th seed from seed.
func opSeed(seed uint64, i int) uint64 {
	return sim.NewRNG(seed).Split(uint64(i)).Uint64()
}

// --- suite-cold ---

// suiteCold runs every registered experiment at quick scale, exactly as a
// default qpexp run does, from an empty memo store. The context is always
// qpexp's default, so every artifact has a golden to match. The workload
// seed orders the experiments: the memo store is shared across them, so
// the order decides which experiment simulates a phase and which replays
// it, and every order must still reproduce the goldens byte for byte.
// (Context seeds other than qpexp's default are no option: at 13 of the
// seeds 1-400, figF1's loss-rate sweep exhausts a retry budget and the
// experiment fails with a DeliveryError.)
type suiteCold struct {
	ctx     *experiments.Context
	exps    []experiments.Experiment
	goldens goldenSet
	outs    []*experiments.Outcome
}

func newSuiteCold(seed uint64) *suiteCold {
	// qpexp's default context: quick scale, per-scale trial counts, and
	// GOMAXPROCS sweep workers. Trials must stay 0: it enters every
	// fingerprint, so any other value misses every golden.
	all := experiments.All()
	exps := make([]experiments.Experiment, len(all))
	for i, j := range sim.NewRNG(seed).Perm(len(all)) {
		exps[i] = all[j]
	}
	return &suiteCold{ctx: &experiments.Context{Scale: experiments.Quick, Seed: goldenSeed}, exps: exps}
}

func (s *suiteCold) setupReps() int { return 9 }

// configure keeps Go's default GOMAXPROCS, the CPU count: the suite runs
// as qpexp does, with one sweep worker per CPU.
func (s *suiteCold) configure() {}

// probeElasticity: the suite's times move about half as much as the
// probe's when the host's speed drifts; probe.go gives the fits.
func (s *suiteCold) probeElasticity() float64 { return 0.5 }

func (s *suiteCold) setUp() ([]opResult, error) {
	phase.ResetStore()
	g, err := loadGoldens(goldenDir, s.exps, s.ctx)
	if err != nil {
		return nil, err
	}
	s.goldens = g
	return nil, nil
}

func (s *suiteCold) run(tr *tracer) *passOutput {
	phase.ResetStore()
	p := &passOutput{ops: make([]opResult, 0, len(s.exps))}
	s.outs = s.outs[:0]
	for _, e := range s.exps {
		id := -1
		if tr != nil {
			id = tr.begin("experiments." + e.ID)
		}
		t0 := now()
		o, err := e.Run(s.ctx)
		wall, cpu := t0.elapsed()
		if tr != nil {
			tr.end(id, 0)
		}
		p.ops = append(p.ops, opResult{name: e.ID, wall: wall, cpu: cpu, err: err})
		s.outs = append(s.outs, o)
	}
	return p
}

func (s *suiteCold) check(tr *tracer, p *passOutput, d counters) {
	// With parallel sweep workers two workers can miss the same memo key
	// at once and both simulate it, so the hit/miss split and the event
	// count vary between passes; the number of lookups does not, nor does
	// the number of machines the workers build.
	p.counts = []int64{d.hits + d.misses, d.builds}
	p.layers = map[string]float64{"sim.events": float64(d.events)}
	for i, e := range s.exps {
		op := &p.ops[i]
		if op.err != nil {
			continue
		}
		o := s.outs[i]
		if strings.HasPrefix(e.ID, "figf") {
			p.layers["faults.retries"] += float64(o.Stats.Retries)
			p.layers["faults.acks"] += float64(o.Stats.Acks)
			p.layers["faults.dropped"] += float64(o.Stats.Dropped)
		}
		id := -1
		if tr != nil {
			id = tr.begin("runstore.encode")
		}
		b, err := encodeArtifact(e, s.ctx, o)
		if tr != nil {
			tr.end(id, 0)
		}
		if err != nil {
			op.err = err
		} else {
			op.err = s.goldens.check(e.ID, b)
		}
	}
}

// --- direct workloads ---

// simOut is the simulated outcome of one algorithm run: everything a
// speed-up must leave unchanged.
type simOut struct {
	Time, ComputeTime, CommTime sim.Time
	Supersteps, CommSteps       int
	Stats                       comm.Stats
}

func simOutOf(r *bsplib.RunResult) simOut {
	return simOut{Time: r.Time, ComputeTime: r.ComputeTime, CommTime: r.CommTime,
		Supersteps: r.Supersteps, CommSteps: r.CommSteps, Stats: r.Stats}
}

// outcomeTable holds the simulated outcomes committed in
// testdata/outcomes.json: for each direct op, its outcome at every seed of
// the input pool, in pool order.
type outcomeTable map[string][]committedOutcome

type committedOutcome struct {
	Seed uint64
	simOut
}

//go:embed testdata/outcomes.json
var outcomesJSON []byte

func committedOutcomes() (outcomeTable, error) {
	var t outcomeTable
	if err := json.Unmarshal(outcomesJSON, &t); err != nil {
		return nil, fmt.Errorf("testdata/outcomes.json: %w", err)
	}
	return t, nil
}

// inputPool is the number of input seeds a direct op draws its input from.
// Every timed run is checked against the outcome committed for its input,
// so a change that moves a simulated number fails the run even though the
// set-up ran the same changed code.
const inputPool = 16

// inputSeed is the k-th seed of the input pool.
func inputSeed(k int) uint64 { return opSeed(goldenSeed, k) }

// opInput picks the pool entry the i-th op of a workload seed runs on.
func opInput(seed uint64, i int) int { return int(opSeed(seed, i) % inputPool) }

// opKind is one algorithm run: the machine it runs on and the run itself,
// with output verification on; run returns an error for a wrong result.
type opKind struct {
	name    string
	machine func() (*machine.Machine, error)
	run     func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error)
}

// directOp is an op kind prepared for timed runs.
type directOp struct {
	opKind
	m    *machine.Machine
	seed uint64
	want simOut
}

// runChecked runs the op once and checks it against its committed outcome.
func (op *directOp) runChecked() (*bsplib.RunResult, error) {
	res, err := op.run(op.m, op.seed)
	if err != nil {
		return nil, err
	}
	if got := simOutOf(res); got != op.want {
		return nil, fmt.Errorf("%s at seed %d: simulated outcome %+v, committed %+v", op.name, op.seed, got, op.want)
	}
	return res, nil
}

// direct drives algorithm runs through the public algorithm API, with
// machines built and inputs chosen from the seed during set-up.
type direct struct {
	seed     uint64
	kinds    []opKind
	outcomes outcomeTable
	ops      []*directOp
}

func newDirect(seed uint64, kinds ...opKind) (*direct, error) {
	t, err := committedOutcomes()
	if err != nil {
		return nil, err
	}
	return &direct{seed: seed, kinds: kinds, outcomes: t}, nil
}

// setupReps repeats the set-up, which is short next to the timed passes,
// so that setup_s is a median.
func (d *direct) setupReps() int { return 3 }

// configure runs the direct workloads on one P. They time one layer's
// serial cost; with two Ps the 1024-goroutine rendezvous of
// apsp-maspar-warm spends its time in cross-CPU wake-ups whose cost
// depends on what else the host runs (the CPU time of one pass varied
// between 1.0 and 2.0 s), which buries the layer being measured.
func (d *direct) configure() { runtime.GOMAXPROCS(1) }

// probeElasticity: on one P the direct workloads run the probe's two
// kernels nearly alone, and their times move with it.
func (d *direct) probeElasticity() float64 { return 1 }

// setUp resets the memo store, builds the machines, picks each op's input
// and runs every op once: the run checks the committed outcome and, where
// the op uses the memo, fills it.
func (d *direct) setUp() ([]opResult, error) {
	phase.ResetStore()
	d.ops = d.ops[:0]
	results := make([]opResult, len(d.kinds))
	for i, k := range d.kinds {
		m, err := k.machine()
		if err != nil {
			return nil, err
		}
		j := opInput(d.seed, i)
		want := d.outcomes[k.name]
		if j >= len(want) || want[j].Seed != inputSeed(j) {
			return nil, fmt.Errorf("%s: testdata/outcomes.json has no outcome for input %d", k.name, j)
		}
		op := &directOp{opKind: k, m: m, seed: want[j].Seed, want: want[j].simOut}
		_, err = op.runChecked()
		results[i] = opResult{name: k.name, err: err}
		d.ops = append(d.ops, op)
	}
	return results, nil
}

func (d *direct) run(tr *tracer) *passOutput {
	p := &passOutput{ops: make([]opResult, 0, len(d.ops)), counts: make([]int64, 2)}
	for _, op := range d.ops {
		saved := op.m.Router
		if tr != nil {
			r, err := instrument(saved, tr)
			if err != nil {
				p.ops = append(p.ops, opResult{name: op.name, err: err})
				continue
			}
			op.m.Router = r
		}
		id := -1
		if tr != nil {
			id = tr.begin("bsplib.run")
		}
		t0 := now()
		res, err := op.runChecked()
		wall, cpu := t0.elapsed()
		if tr != nil {
			tr.end(id, 0)
		}
		op.m.Router = saved
		if err == nil {
			p.counts[0] += int64(res.Supersteps)
			p.counts[1] += int64(res.CommSteps)
		}
		p.ops = append(p.ops, opResult{name: op.name, wall: wall, cpu: cpu, err: err})
	}
	return p
}

func (d *direct) check(tr *tracer, p *passOutput, dl counters) {
	p.counts = append(p.counts, dl.hits, dl.misses, dl.events)
	p.layers = map[string]float64{
		"bsplib.supersteps": float64(p.counts[0]),
		"bsplib.comm_steps": float64(p.counts[1]),
	}
	if tr == nil {
		return
	}
	// Events are counted at the engine wrappers, which also see routers
	// priced without the memo; the engine calls made under the memo layer
	// must agree with the memo's own event counter.
	var all, underMemo int
	for _, s := range tr.spans {
		if !strings.HasPrefix(s.name, "netsim.") {
			continue
		}
		all += s.events
		if s.parent >= 0 && tr.spans[s.parent].name == "phase.route" {
			underMemo += s.events
		}
	}
	p.layers["sim.events"] = float64(all)
	if int64(underMemo) != dl.events {
		for i := range p.ops {
			if p.ops[i].err == nil {
				p.ops[i].err = fmt.Errorf("engine wrappers under the memo counted %d events, the memo counter %d", underMemo, dl.events)
			}
		}
	}
}

// maxErrTol is the algorithm tests' own tolerance: 4-byte wire words round
// to float32.
func maxErrTol(m *machine.Machine, float32Tol float64) float64 {
	if m.WordBytes == 4 {
		return float32Tol
	}
	return 1e-9
}

// apspOp is Floyd APSP with N=64 on the 1024-PE MasPar.
var apspOp = opKind{
	name:    "apsp",
	machine: func() (*machine.Machine, error) { return machine.Build("maspar") },
	run: func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := apsp.Run(m, apsp.Config{N: 64, Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if tol := maxErrTol(m, 1e-2); r.MaxErr > tol {
			return nil, fmt.Errorf("apsp: max error %g above %g", r.MaxErr, tol)
		}
		return r.Run, nil
	},
}

// bitonicOp is unsynchronised Word bitonic sort (M=512) on the GCel with
// the memo bypassed.
var bitonicOp = opKind{
	name:    "bitonic",
	machine: func() (*machine.Machine, error) { return machine.Build("gcel") },
	run: func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := bitonic.Run(m, bitonic.Config{KeysPerProc: 512, Variant: bitonic.Word,
			Seed: seed, Verify: true, DisablePatternCache: true})
		if err != nil {
			return nil, err
		}
		if !r.Sorted {
			return nil, fmt.Errorf("bitonic: output not sorted")
		}
		return r.Run, nil
	},
}

// matmulOp is unstaggered matmul (N=256, q=4) on the CM-5, priced on its
// unwrapped engine router so that the memo never sees it.
var matmulOp = opKind{
	name: "matmul",
	machine: func() (*machine.Machine, error) {
		m, err := machine.Build("cm5")
		if err != nil {
			return nil, err
		}
		c, ok := m.Router.(*phase.CachedRouter)
		if !ok {
			return nil, fmt.Errorf("cm5 router %T is not memoised", m.Router)
		}
		m.Router = c.Unwrap()
		return m, nil
	},
	run: func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := matmul.Run(m, matmul.Config{N: 256, Q: 4, Variant: matmul.BSPUnstaggered,
			Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if tol := maxErrTol(m, 1e-3); r.MaxErr > tol {
			return nil, fmt.Errorf("matmul: max error %g above %g", r.MaxErr, tol)
		}
		return r.Run, nil
	},
}

// directKinds lists every op kind, in the order testdata/outcomes.json is
// written.
var directKinds = []opKind{apspOp, bitonicOp, matmulOp}
