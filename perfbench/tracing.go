package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"quantpar/internal/comm"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// span is one timed call across a layer boundary. Spans live in the
// tracer's slice and refer to their parent by index.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at top level
	start, end time.Duration
	events     int // simulation events the call reported, for router spans
}

// tracer records spans in memory for one traced pass. It is used from one
// goroutine at a time: the benchmark opens op spans on the main goroutine,
// and bsplib calls Route from whichever processor goroutine completes a
// superstep, always under its engine lock and always inside the op span.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{name: name, parent: t.cur, start: time.Since(t.epoch)})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(id, events int) {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.events = events
	t.cur = s.parent
}

// layerTotals is the per-name aggregate of a tracer's spans: wall time,
// self time (wall minus the time covered by child spans), call count and
// reported simulation events.
type layerTotals struct {
	wall, self time.Duration
	calls      int
	events     int
}

func (t *tracer) totals() map[string]*layerTotals {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.wall += d
		lt.self += d - child[i]
		lt.calls++
		lt.events += s.events
	}
	return out
}

// engineKinds maps each registered backend's router name to the netsim
// engine that prices its steps. A backend missing here fails the
// every-machine test, so the table cannot silently fall behind the
// registry.
var engineKinds = map[string]string{
	"maspar-mp1":    "wave",
	"gcel-mesh":     "phased",
	"cm5-fattree":   "active",
	"cluster-torus": "active",
}

// engines lists the engine kinds in metric order.
var engines = []string{"wave", "phased", "active"}

// timedRouter records a span around every Route call of the router it
// wraps. It forwards Unwrap, so bsplib's fault-clock reset still finds the
// engine's fault controller, and FaultsActive, so a memo wrapper stacked
// on top still bypasses fault-armed steps.
type timedRouter struct {
	inner comm.Router
	name  string
	tr    *tracer
}

func (r *timedRouter) Name() string        { return r.inner.Name() }
func (r *timedRouter) Procs() int          { return r.inner.Procs() }
func (r *timedRouter) Unwrap() comm.Router { return r.inner }
func (r *timedRouter) FaultsActive() bool {
	f, ok := r.inner.(interface{ FaultsActive() bool })
	return ok && f.FaultsActive()
}

func (r *timedRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	id := r.tr.begin(r.name)
	res := r.inner.Route(step, rng)
	r.tr.end(id, res.Events)
	return res
}

// identified is the router identity phase.Wrap needs to key memo entries.
type identified interface {
	Fingerprint() uint64
	UsesRNG() bool
}

// instrument returns r with spans at its layer boundaries: a memoised
// router becomes timed(memo(timed(engine))), so the memo layer's self time
// is its span minus the engine span inside it; any other router is timed
// as a bare engine.
func instrument(r comm.Router, tr *tracer) (comm.Router, error) {
	c, memo := r.(*phase.CachedRouter)
	if !memo {
		return engineTimed(r, tr)
	}
	raw := c.Unwrap()
	id, ok := raw.(identified)
	if !ok {
		return nil, fmt.Errorf("router %q exposes no memo identity", raw.Name())
	}
	eng, err := engineTimed(raw, tr)
	if err != nil {
		return nil, err
	}
	return &timedRouter{inner: phase.Wrap(eng, id.Fingerprint(), id.UsesRNG()), name: "phase.route", tr: tr}, nil
}

func engineTimed(r comm.Router, tr *tracer) (comm.Router, error) {
	kind, ok := engineKinds[r.Name()]
	if !ok {
		return nil, fmt.Errorf("router %q has no known netsim engine", r.Name())
	}
	return &timedRouter{inner: r, name: "netsim." + kind + ".route", tr: tr}, nil
}

// writeChromeTrace writes the spans of every traced pass as Chrome
// trace-event JSON (complete events on one track per pass), which Perfetto
// and chrome://tracing open directly.
func writeChromeTrace(path string, passes []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	for pass, t := range passes {
		for _, s := range t.spans {
			if !first {
				if _, err := w.WriteString(","); err != nil {
					return err
				}
			}
			first = false
			ev := event{Name: s.name, Ph: "X", Pid: 1, Tid: pass + 1,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3}
			if s.events > 0 {
				ev.Args = map[string]int{"events": s.events}
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
