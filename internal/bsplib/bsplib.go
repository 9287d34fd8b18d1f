// Package bsplib is the parallel programming library of this reproduction:
// a superstep (BSP-style) execution engine that runs P-processor programs
// on a simulated machine. Programs are ordinary Go functions executed in
// one goroutine per simulated processor; they compute real results on real
// data while the engine accounts simulated time - local computation through
// the machine's compute model, communication through its router simulator.
//
// The goroutines take turns around a token ring, so exactly one of them
// runs at a time. A processor holds the turn from one synchronization to
// the next, then hands it to the next processor; the last processor of
// the round prices and delivers the step. The engine state is therefore
// only ever touched by the turn holder and needs no lock, and a run's
// schedule - including which processor routes each step - is fixed.
//
// The engine supports the programming disciplines the paper's algorithms
// use:
//
//   - BSP supersteps: arbitrary sends followed by Sync (a barrier);
//   - MP-BSP word streams on SIMD machines: SendWords traffic is priced as
//     a sequence of synchronous one-word communication steps, matching the
//     MasPar's one-outstanding-message-per-PE restriction;
//   - MP-BPRAM block steps: single long messages, optionally checked
//     against the model's one-send/one-receive-per-step rule;
//   - unsynchronized steps (Flush) on MIMD machines, where processors keep
//     their clock skews - the mode in which the GCel drifts out of sync.
package bsplib

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
	"quantpar/internal/trace"
)

// Program is the per-processor body of a parallel program. It runs once on
// every simulated processor.
type Program func(ctx *Context)

// Discipline selects the communication rules the engine enforces.
type Discipline int

const (
	// DisciplineNone performs no checking (BSP and MP-BSP programs).
	DisciplineNone Discipline = iota
	// DisciplineMPBPRAM enforces the Message-Passing Block PRAM rule: in
	// every communication step each processor sends at most one message
	// and receives at most one message.
	DisciplineMPBPRAM
)

// Options configure a run.
type Options struct {
	Discipline Discipline
	// Seed drives every stochastic component of the run (router jitter and
	// program-level randomness via Context.RNG).
	Seed uint64
	// DisablePatternCache marks every communication step NoMemo, bypassing
	// the phase memo cache (package phase) for this run: each step is priced
	// by full event-driven simulation. The RNG streams are unchanged, so a
	// run produces byte-identical results either way — the flag only trades
	// simulation work, which is what the desync/drift studies and the
	// ablation benchmarks need.
	DisablePatternCache bool
	// Trace, when non-nil, records a per-superstep execution timeline.
	Trace *trace.Recorder
}

// RunResult reports a simulated execution.
type RunResult struct {
	// Time is the simulated makespan in microseconds.
	Time sim.Time
	// ComputeTime sums the per-superstep maxima of charged local
	// computation; CommTime is the rest of the makespan.
	ComputeTime sim.Time
	CommTime    sim.Time
	// CommSteps counts priced communication steps; on SIMD machines each
	// word step of a stream counts individually.
	CommSteps  int
	Supersteps int
	Stats      comm.Stats
	// PatternCacheHits counts communication steps replayed from the phase
	// memo cache during this run (each repeated word step of a SIMD stream
	// interval counts individually).
	PatternCacheHits int
}

type outMsg struct {
	dst     int
	tag     int
	payload []byte
	stream  bool
}

// abortRun is the sentinel panic unwinding processor goroutines when the
// engine detects an error.
type abortRun struct{ err error }

type engine struct {
	m   *machine.Machine
	n   int
	opt Options

	// The token ring. turn[p] (capacity 1) wakes processor p for its turn;
	// returned marks processors whose programs have returned, which the
	// ring skips; fin wakes Run once no processor is left.
	turn     []chan struct{}
	returned []bool
	fin      chan struct{}

	// arrived counts processors waiting at the current step.
	arrived     int
	stepBarrier bool
	err         error

	clocks    []sim.Time
	computeAt []sim.Time
	outboxes  [][]outMsg
	inboxes   [][]comm.Msg

	// Delivery arenas. Every payload is copied into an engine-owned arena at
	// delivery time; step k fills arenas[k&1], so the views handed out at
	// step k stay intact through step k+1, in which a receiver may still
	// forward them (Recv views are valid until the receiver's next
	// synchronization). Only the processor that routes a step touches the
	// arenas, and the ring fixes which one that is, so buffer identity is
	// deterministic.
	arenas [2][]byte

	// Step-building scratch, reused across supersteps so that steady-state
	// routing performs no per-step allocation.
	stepBuf    comm.Step
	sendsBuf   [][]comm.Msg
	offsetsBuf []sim.Time
	runsBuf    [][]streamRun
	boundaries []int
	cursor     []int
	inDeg      []int

	stepIdx int
	rng     *sim.RNG
	res     RunResult
}

// newMsgLists preallocates per-processor message lists with room for a
// typical superstep's traffic, avoiding the append-doubling allocations of
// every run's first delivery.
func newMsgLists(n int) [][]comm.Msg {
	lists := make([][]comm.Msg, n)
	for i := range lists {
		lists[i] = make([]comm.Msg, 0, 16)
	}
	return lists
}

// Run executes prog on machine m and returns the simulated timing. Run is
// deterministic for fixed (machine, program, options).
func Run(m *machine.Machine, prog Program, opt Options) (*RunResult, error) {
	n := m.P()
	e := &engine{
		m:          m,
		n:          n,
		opt:        opt,
		turn:       make([]chan struct{}, n),
		returned:   make([]bool, n),
		fin:        make(chan struct{}),
		clocks:     make([]sim.Time, n),
		computeAt:  make([]sim.Time, n),
		outboxes:   make([][]outMsg, n),
		inboxes:    newMsgLists(n),
		sendsBuf:   make([][]comm.Msg, n),
		offsetsBuf: make([]sim.Time, n),
		runsBuf:    make([][]streamRun, n),
		cursor:     make([]int, n),
		inDeg:      make([]int, n),
		rng:        sim.NewRNG(opt.Seed ^ 0x5a17ed),
	}

	// Rewind the machine's fault clock (if any) so every run sees the same
	// fault schedule from simulated time zero; this is what makes a faulty
	// run repeatable and independent of earlier runs on the same machine.
	if ctrl := faults.ControllerOf(m.Router); ctrl != nil {
		ctrl.ResetFaultClock()
	}

	ctxs := make([]Context, n)
	for p := range ctxs {
		e.turn[p] = make(chan struct{}, 1)
		ctxs[p] = Context{
			e: e, id: p, rng: e.rng.Split(uint64(0xC0FFEE + p)),
			// Seed the send-side scratch so typical first supersteps
			// skip the append-doubling allocations.
			outbox: make([]outMsg, 0, 16),
		}
		go e.proc(&ctxs[p], prog)
	}
	e.pass(-1) // hand the first turn to processor 0
	<-e.fin

	if e.err != nil {
		return nil, e.err
	}
	// Residual compute after the last sync extends the makespan.
	maxResidual := sim.Time(0)
	maxClock := sim.Time(0)
	for p := 0; p < n; p++ {
		e.clocks[p] += e.computeAt[p]
		if e.computeAt[p] > maxResidual {
			maxResidual = e.computeAt[p]
		}
		if e.clocks[p] > maxClock {
			maxClock = e.clocks[p]
		}
	}
	e.res.ComputeTime += maxResidual
	e.res.Time = maxClock
	e.res.CommTime = e.res.Time - e.res.ComputeTime
	return &e.res, nil
}

// proc is the goroutine of the processor ctx: it waits for its first turn
// and runs the program. When the program returns or panics, the processor
// leaves the ring and hands its last turn on.
func (e *engine) proc(ctx *Context, prog Program) {
	p := ctx.id
	defer func() {
		if r := recover(); r != nil {
			e.fail(runPanicError(p, r))
		}
		// Computation charged after the final sync still occupies this
		// processor.
		e.computeAt[p] += ctx.compute
		e.returned[p] = true
		e.pass(p)
	}()
	e.wait(p)
	prog(ctx)
}

// runPanicError converts a processor-goroutine panic into the run's error.
// The engine's own aborts pass through unchanged; the structured failures
// the simulators raise under fault injection - delivery-budget exhaustion,
// watchdog deadlines, network partitions - keep their typed error values
// (matchable with errors.As / errors.Is) instead of collapsing into a
// generic panic message.
func runPanicError(p int, r any) error {
	switch v := r.(type) {
	case abortRun:
		return v.err
	case *faults.DeliveryError:
		return fmt.Errorf("bsplib: processor %d: %w", p, v)
	case *sim.DeadlineError:
		return fmt.Errorf("bsplib: processor %d: %w", p, v)
	case error:
		if errors.Is(v, topology.ErrPartitioned) {
			return fmt.Errorf("bsplib: processor %d: %w", p, v)
		}
	}
	return fmt.Errorf("bsplib: processor %d panicked: %v", p, r)
}

// fail records the run's first error. The ring keeps turning: every
// processor that gets the turn afterwards unwinds (see wait).
func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// sync ends processor p's turn at a step: p contributes its outbox and
// compute, hands the turn on, and parks until the step has been priced and
// delivered and the turn comes back round.
func (e *engine) sync(p int, barrier bool, outbox []outMsg, compute sim.Time) {
	if e.arrived == 0 {
		e.stepBarrier = barrier
	} else if e.stepBarrier != barrier {
		e.fail(fmt.Errorf("bsplib: processors disagree on step type (barrier vs flush) at step %d", e.stepIdx))
		panic(abortRun{e.err})
	}
	e.outboxes[p] = outbox
	e.computeAt[p] += compute
	e.arrived++
	e.pass(p)
	e.wait(p)
}

// wait parks processor p until it holds the turn. A turn taken after the
// run failed unwinds p's program instead.
func (e *engine) wait(p int) {
	<-e.turn[p]
	if e.err != nil {
		panic(abortRun{e.err})
	}
}

// pass ends processor p's turn by handing it to the next live processor of
// the round. If p was the last, every live processor has now either arrived
// at the step or returned: the step is priced and delivered (a returned
// processor contributes no messages), and the turn wraps to the first live
// processor. Once no processor is live, Run is woken instead.
func (e *engine) pass(p int) {
	if q := e.nextLive(p + 1); q >= 0 {
		e.turn[q] <- struct{}{}
		return
	}
	if e.arrived > 0 && e.err == nil {
		e.routeStep(p)
	}
	e.arrived = 0
	if q := e.nextLive(0); q >= 0 {
		e.turn[q] <- struct{}{}
		return
	}
	close(e.fin)
}

// nextLive returns the first processor at or after from whose program has
// not returned, or -1 if there is none.
func (e *engine) nextLive(from int) int {
	for q := from; q < e.n; q++ {
		if !e.returned[q] {
			return q
		}
	}
	return -1
}

// routeStep routes the gathered step on processor p's turn. A router panic
// - a structured failure the simulators raise under fault injection, or a
// bug - becomes the run's error, whether p is syncing or returning.
func (e *engine) routeStep(p int) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(runPanicError(p, r))
		}
	}()
	e.route()
}

// route prices and delivers the gathered step.
func (e *engine) route() {
	barrier := e.stepBarrier
	e.res.Supersteps++
	wallBefore := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] > wallBefore {
			wallBefore = e.clocks[p]
		}
	}
	commStepsBefore := e.res.CommSteps

	// Local computation: SIMD machines run in lockstep, so every step
	// costs the maximum charge; MIMD machines advance each clock by its
	// own charge (skews persist until a barrier).
	maxC := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.computeAt[p] > maxC {
			maxC = e.computeAt[p]
		}
	}
	e.res.ComputeTime += maxC
	if e.m.SIMD {
		align := sim.Time(0)
		for p := 0; p < e.n; p++ {
			if e.clocks[p] > align {
				align = e.clocks[p]
			}
		}
		align += maxC
		for p := 0; p < e.n; p++ {
			e.clocks[p] = align
			e.computeAt[p] = 0
		}
	} else {
		for p := 0; p < e.n; p++ {
			e.clocks[p] += e.computeAt[p]
			e.computeAt[p] = 0
		}
	}

	if err := e.checkDiscipline(); err != nil {
		e.fail(err)
		return
	}

	if e.m.SIMD {
		e.routeSIMD(barrier)
	} else {
		e.routeMIMD(barrier)
	}
	if e.err != nil {
		return
	}
	if e.opt.Trace != nil {
		e.recordTrace(barrier, maxC, wallBefore, commStepsBefore)
	}
	e.deliver()
	e.stepIdx++
}

// recordTrace appends this step's timeline record. It runs before delivery
// clears the outboxes.
func (e *engine) recordTrace(barrier bool, maxC, wallBefore sim.Time, commStepsBefore int) {
	rec := trace.Superstep{
		Barrier:   barrier,
		Compute:   maxC,
		CommSteps: e.res.CommSteps - commStepsBefore,
	}
	wallAfter := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] > wallAfter {
			wallAfter = e.clocks[p]
		}
	}
	rec.Wall = wallAfter - wallBefore
	in := e.inDeg
	clear(in)
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
			rec.Msgs++
			rec.Bytes += len(m.payload)
			in[m.dst]++
		}
	}
	for p := 0; p < e.n; p++ {
		out := len(e.outboxes[p])
		if out > rec.H {
			rec.H = out
		}
		if in[p] > rec.H {
			rec.H = in[p]
		}
		if out > 0 || in[p] > 0 {
			rec.Active++
		}
	}
	e.opt.Trace.Record(rec)
}

// checkDiscipline validates the MP-BPRAM one-send/one-receive rule.
func (e *engine) checkDiscipline() error {
	if e.opt.Discipline != DisciplineMPBPRAM {
		return nil
	}
	in := e.inDeg
	clear(in)
	for src := 0; src < e.n; src++ {
		if len(e.outboxes[src]) > 1 {
			return fmt.Errorf("bsplib: MP-BPRAM violation at step %d: processor %d sends %d messages",
				e.stepIdx, src, len(e.outboxes[src]))
		}
		for _, m := range e.outboxes[src] {
			in[m.dst]++
			if in[m.dst] > 1 {
				return fmt.Errorf("bsplib: MP-BPRAM violation at step %d: processor %d receives more than one message",
					e.stepIdx, m.dst)
			}
		}
	}
	return nil
}

// routeMIMD prices the step on an asynchronous machine, expanding
// word streams into individual word messages in send order. The step is
// built in engine-owned scratch; routers may hold views into it only until
// their next Route call (they all reset per call).
//
//qpvet:hotpath
func (e *engine) routeMIMD(barrier bool) {
	w := e.m.WordBytes
	sends := e.sendsBuf
	for p := range sends {
		sends[p] = sends[p][:0]
	}
	step := &e.stepBuf
	*step = comm.Step{Sends: sends, Barrier: barrier}
	base := math.Inf(1)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] < base {
			base = e.clocks[p]
		}
	}
	offsets := e.offsetsBuf
	any := false
	for p := 0; p < e.n; p++ {
		offsets[p] = e.clocks[p] - base
		if offsets[p] > 0 {
			any = true
		}
		for _, m := range e.outboxes[p] {
			if m.stream {
				words := (len(m.payload) + w - 1) / w
				for i := 0; i < words; i++ {
					b := w
					if i == words-1 {
						b = len(m.payload) - (words-1)*w
					}
					sends[p] = append(sends[p], comm.Msg{Src: p, Dst: m.dst, Bytes: b}) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
				}
			} else {
				sends[p] = append(sends[p], comm.Msg{Src: p, Dst: m.dst, Bytes: len(m.payload)}) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
			}
		}
	}
	if any {
		step.Offsets = offsets
	}
	// Fingerprint the step at Sync and derive the router's RNG stream from
	// the pattern digest rather than the superstep index: a jittered router
	// then draws identical noise for identical phases, which is exactly what
	// makes the memo replay exact — the stored outcome IS the outcome every
	// recurrence of the phase would have simulated.
	d := phase.DigestStep(step)
	step.Memo = d
	step.NoMemo = e.opt.DisablePatternCache
	res := e.m.Router.Route(step, e.rng.Split(d.Hi^d.Lo))
	if res.Replayed {
		e.res.PatternCacheHits++
	}
	for p := 0; p < e.n; p++ {
		e.clocks[p] = base + res.Finish[p]
	}
	e.res.CommSteps++
	e.res.Stats.Add(res.Stats)
}

// routeSIMD prices the step on a lockstep machine. Clocks are already
// aligned. Block messages form one synchronous communication step; streams
// are priced as ceil(bytes/word) one-word steps each costing a full router
// step (the MP-BSP cost model's (g+L) per word).
//
//qpvet:hotpath
func (e *engine) routeSIMD(barrier bool) {
	_ = barrier // every SIMD step is aligned; barrier is implicit
	hasStream, hasBlock := false, false
	for p := 0; p < e.n; p++ {
		for _, m := range e.outboxes[p] {
			if m.stream {
				hasStream = true
			} else {
				hasBlock = true
			}
		}
	}
	if hasStream && hasBlock {
		//qpvet:ignore hotalloc -- cold failure path: the step is already invalid when this formats
		e.fail(fmt.Errorf("bsplib: step %d mixes word streams and block messages on a SIMD machine", e.stepIdx))
		return
	}

	sends := e.sendsBuf
	for p := range sends {
		sends[p] = sends[p][:0]
	}
	step := &e.stepBuf
	*step = comm.Step{Sends: sends, Barrier: true}

	elapsed := sim.Time(0)
	switch {
	case !hasStream && !hasBlock:
		// Pure barrier.
		elapsed = e.priceStep(step, 1)
		e.res.CommSteps++
	case hasBlock:
		for p := 0; p < e.n; p++ {
			for _, m := range e.outboxes[p] {
				sends[p] = append(sends[p], comm.Msg{Src: p, Dst: m.dst, Bytes: len(m.payload)}) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
			}
		}
		elapsed = e.priceStep(step, 1)
		e.res.CommSteps++
	default:
		elapsed = e.priceStreams()
	}
	for p := 0; p < e.n; p++ {
		e.clocks[p] += elapsed
	}
}

// priceStreams prices a SIMD step consisting purely of word streams. Each
// PE transmits its streams back to back, one word per synchronous word
// step (the MasPar's one-outstanding-message restriction); at any word
// index every PE therefore sends at most one word. Consecutive word steps
// share a pattern until some PE crosses a stream boundary, so the step
// sequence is priced per constant-pattern interval: the pattern is built
// and routed once and multiplied by the interval length (with pattern
// memoization on top). For the uniform streams the paper's algorithms
// generate this reduces pricing to a handful of router calls per superstep.
//
// The run lists, boundary list, cursors and the per-interval pattern all
// live in engine scratch: intervals are priced one after another, and every
// router resets its view of the step at the top of Route, so one reused
// backing is safe - and the pattern build stops costing one slice
// allocation per active PE per interval (the dominant allocation of the
// MasPar experiments before the zero-copy pipeline).
//
//qpvet:hotpath
func (e *engine) priceStreams() sim.Time {
	w := e.m.WordBytes
	runs := e.runsBuf
	for p := range runs {
		runs[p] = runs[p][:0]
	}
	boundaries := e.boundaries[:0]
	maxWords := 0
	for p := 0; p < e.n; p++ {
		pos := 0
		for _, m := range e.outboxes[p] {
			words := (len(m.payload) + w - 1) / w
			runs[p] = append(runs[p], streamRun{dst: m.dst, start: pos, end: pos + words}) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
			boundaries = append(boundaries, pos, pos+words)                                //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
			pos += words
		}
		if pos > maxWords {
			maxWords = pos
		}
	}
	// Sort, then dedup in place, dropping boundaries at or past the stream
	// end (the list is sorted, so the first such entry ends the scan). The
	// list carries two entries per message (mostly duplicates), so this
	// needs a real sort, not the old tiny-set insertion sort.
	slices.Sort(boundaries)
	uniq := boundaries[:0]
	for i, b := range boundaries {
		if b >= maxWords {
			break
		}
		if i > 0 && b == boundaries[i-1] {
			continue
		}
		uniq = append(uniq, b) //qpvet:ignore hotalloc -- in-place dedup: uniq aliases boundaries[:0] and can never outgrow its backing
	}
	boundaries = uniq
	e.boundaries = uniq

	elapsed := sim.Time(0)
	cursor := e.cursor // index of the next candidate run per PE
	clear(cursor)
	sends := e.sendsBuf
	step := &e.stepBuf
	for bi, b := range boundaries {
		next := maxWords
		if bi+1 < len(boundaries) {
			next = boundaries[bi+1]
		}
		span := next - b
		for p := range sends {
			sends[p] = sends[p][:0]
		}
		*step = comm.Step{Sends: sends, Barrier: true}
		for p := 0; p < e.n; p++ {
			for cursor[p] < len(runs[p]) && runs[p][cursor[p]].end <= b {
				cursor[p]++
			}
			if cursor[p] < len(runs[p]) {
				r := runs[p][cursor[p]]
				if r.start <= b && b < r.end {
					sends[p] = append(sends[p], comm.Msg{Src: p, Dst: r.dst, Bytes: w}) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
				}
			}
		}
		elapsed += e.priceStep(step, span)
		e.res.CommSteps += span
	}
	return elapsed
}

// streamRun is one contiguous word-stream interval of a PE, in word-index
// coordinates (priceStreams scratch).
type streamRun struct {
	dst        int
	start, end int
}

// priceStep prices a synchronous SIMD step through the phase memo cache
// and accounts it `repeat` times. The stream index is the superstep index:
// the SIMD routers are RNG-free, so identical patterns price identically
// regardless of the stream, and the memo key does not include it.
func (e *engine) priceStep(step *comm.Step, repeat int) sim.Time {
	step.Memo = phase.DigestStep(step)
	step.NoMemo = e.opt.DisablePatternCache
	res := e.m.Router.Route(step, e.rng.Split(uint64(e.stepIdx)))
	if res.Replayed {
		e.res.PatternCacheHits += repeat
	}
	for i := 0; i < repeat; i++ {
		e.res.Stats.Add(res.Stats)
	}
	return res.Elapsed * sim.Time(repeat)
}

// deliver moves payloads to the destination inboxes in deterministic
// order (by source, then send order), replacing the previous step's
// deliveries.
//
// Every payload is copied into this step's delivery arena, so receivers
// never alias sender memory: a sender regains ownership of its buffer the
// moment its synchronization returns, and mutating it cannot corrupt what
// was delivered. The two arenas alternate by step, so the arena written now
// is not the one holding the previous step's views - a program may forward
// a received slice verbatim, and its bytes stay intact while they are
// copied out.
//
//qpvet:hotpath
func (e *engine) deliver() {
	for p := 0; p < e.n; p++ {
		e.inboxes[p] = e.inboxes[p][:0]
	}
	// Each inbox entry is a cap-capped sub-slice of the arena, so one
	// backing per arena serves every message of every step.
	total := 0
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
			total += len(m.payload)
		}
	}
	arena := e.arenas[e.stepIdx&1]
	if cap(arena) < total {
		arena = make([]byte, max(2*cap(arena), total)) //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
		e.arenas[e.stepIdx&1] = arena
	}
	off := 0
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
			buf := arena[off : off+len(m.payload) : off+len(m.payload)]
			off += len(m.payload)
			copy(buf, m.payload)
			e.inboxes[m.dst] = append(e.inboxes[m.dst], comm.Msg{ //qpvet:ignore hotalloc -- amortized scratch growth, backing reused across supersteps
				Src: src, Dst: m.dst, Tag: m.tag, Bytes: len(buf), Payload: buf,
			})
		}
		e.outboxes[src] = nil
	}
}
