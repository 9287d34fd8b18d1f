package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/bsplib"
	"quantpar/internal/experiments"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
	"quantpar/internal/runstore"
)

// repoGoldenDir is the golden store seen from this package's directory.
var repoGoldenDir = filepath.Join("..", goldenDir)

func smallSort(m *machine.Machine) (*bsplib.RunResult, error) { return smallSortAt(m, 5) }

func smallSortAt(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
	r, err := bitonic.Run(m, bitonic.Config{KeysPerProc: 16, Variant: bitonic.Word, Seed: seed, Verify: true})
	if err != nil {
		return nil, err
	}
	if !r.Sorted {
		return nil, fmt.Errorf("not sorted")
	}
	return r.Run, nil
}

// tracedSort runs smallSort with the timing wrappers installed on m and
// returns the outcome and the events the engine wrappers counted.
func tracedSort(t *testing.T, m *machine.Machine) (simOut, int) {
	t.Helper()
	saved := m.Router
	tr := newTracer()
	r, err := instrument(saved, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Router = r
	defer func() { m.Router = saved }()
	res, err := smallSort(m)
	if err != nil {
		t.Fatalf("%s traced: %v", m.Name, err)
	}
	events := 0
	for name, lt := range tr.totals() {
		if strings.HasPrefix(name, "netsim.") {
			events += lt.events
		}
	}
	return simOutOf(res), events
}

func TestTracedRunMatchesUntracedOnEveryMachine(t *testing.T) {
	for _, name := range machine.Names() {
		m, err := machine.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		phase.ResetStore()
		res, err := smallSort(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := simOutOf(res)

		// From an empty store the traced run simulates every step through
		// the engine wrapper, which must count what the memo counts.
		phase.ResetStore()
		e0 := phase.SimEvents()
		got, events := tracedSort(t, m)
		if got != want {
			t.Errorf("%s: traced %+v, untraced %+v", name, got, want)
		}
		if int64(events) != phase.SimEvents()-e0 || events == 0 {
			t.Errorf("%s: engine wrappers counted %d events, memo counter %d", name, events, phase.SimEvents()-e0)
		}
	}
}

// With a fault plan armed, the wrappers must pass FaultsActive through to
// the memo (which then bypasses every step) and Unwrap through to bsplib's
// fault-clock reset (or a second run would start from a later clock).
func TestTracedRunForwardsFaultSurface(t *testing.T) {
	for _, name := range machine.Names() {
		m, err := machine.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.NewPlan(faults.Spec{Seed: 7, DropRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := machine.InjectFaults(m, plan); err != nil {
			t.Fatal(err)
		}
		phase.ResetStore()
		res, err := smallSort(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := simOutOf(res)
		if want.Stats.Acks == 0 {
			t.Fatalf("%s: fault plan not in effect: %+v", name, want.Stats)
		}
		h0 := phase.Hits()
		for i := 0; i < 2; i++ {
			if got, _ := tracedSort(t, m); got != want {
				t.Errorf("%s: traced run %d %+v, untraced %+v", name, i, got, want)
			}
		}
		if h := phase.Hits() - h0; h != 0 {
			t.Errorf("%s: %d memo hits on a fault-armed machine", name, h)
		}
	}
}

func qpexpContext() *experiments.Context {
	return &experiments.Context{Scale: experiments.Quick, Seed: goldenSeed}
}

func TestGoldenCheckAcceptsGoldensAndRejectsAFlippedByte(t *testing.T) {
	exps := experiments.All()
	ctx := qpexpContext()
	g, err := loadGoldens(repoGoldenDir, exps, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(exps) {
		t.Fatalf("%d goldens for %d experiments", len(g), len(exps))
	}
	for _, e := range exps {
		a, err := runstore.Decode(g[e.ID])
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeArtifact(e, ctx, a.Outcome())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.check(e.ID, b); err != nil {
			t.Fatalf("re-encoded golden rejected: %v", err)
		}
		b[len(b)/2] ^= 1
		if err := g.check(e.ID, b); err == nil {
			t.Fatalf("%s: artifact with a flipped byte accepted", e.ID)
		}
	}
	if err := g.check("no-such-experiment", nil); err == nil {
		t.Fatal("missing golden accepted")
	}
}

// experiments.DefaultContext sets Trials 8, which enters the fingerprint:
// no golden matches it, which is why the suite builds qpexp's context.
func TestDefaultContextMatchesNoGolden(t *testing.T) {
	g, err := loadGoldens(repoGoldenDir, experiments.All(), experiments.DefaultContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatalf("%d goldens match DefaultContext", len(g))
	}
}

func TestMissingGoldenStoreIsAnError(t *testing.T) {
	if _, err := loadGoldens(t.TempDir(), experiments.All(), qpexpContext()); err == nil {
		t.Fatal("empty golden directory accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricCatalog checks every metric name and unit, and that
// BENCHMARK.json declares exactly the metrics the benchmark reports.
func TestMetricCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) []metricDef {
		out := make([]metricDef, len(list))
		for i, m := range list {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		what           string
		have, declared []metricDef
	}{
		{"end_to_end", endToEnd, declared(bench.EndToEnd)},
		{"per_layer", perLayer(), declared(bench.PerLayer)},
	} {
		if fmt.Sprint(set.have) != fmt.Sprint(set.declared) {
			t.Errorf("%s: benchmark reports %v, BENCHMARK.json declares %v", set.what, set.have, set.declared)
		}
		for _, m := range set.have {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("bad metric %q unit %q", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %q listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
}

// smallWorkload is a direct workload of one small sort, fast enough to
// drive the whole measurement loop in a test. Its committed outcome is
// the one an unchanged sort gives; run is what the workload times.
func smallWorkload(t *testing.T, run func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error)) *direct {
	t.Helper()
	k := opKind{name: "sort", machine: func() (*machine.Machine, error) { return machine.Build("gcel") }, run: smallSortAt}
	m, err := k.machine()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	j := opInput(seed, 0)
	res, err := k.run(m, inputSeed(j))
	if err != nil {
		t.Fatal(err)
	}
	table := outcomeTable{k.name: make([]committedOutcome, inputPool)}
	table[k.name][j] = committedOutcome{inputSeed(j), simOutOf(res)}
	k.run = run
	return &direct{seed: seed, kinds: []opKind{k}, outcomes: table}
}

func TestMeasureReportsTheCatalog(t *testing.T) {
	for _, traced := range []bool{false, true} {
		s, spans, err := measure(smallWorkload(t, smallSortAt), 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		res := summarize(s, traced)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		want := endToEnd
		if traced {
			want = perLayer()
			if len(spans) == 0 {
				t.Fatal("traced run kept no spans")
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeChromeTrace(path, spans); err != nil {
				t.Fatal(err)
			}
			var events []map[string]any
			raw, _ := os.ReadFile(path)
			if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
				t.Fatalf("trace file: %d events, %v", len(events), err)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v", traced, m.name, got)
			}
		}
		if traced && (res.Metrics["phase.hits"].Value == 0 || res.Metrics["bsplib.supersteps"].Value == 0) {
			t.Errorf("traced run saw no memo hits or supersteps: %+v", res.Metrics)
		}
	}
}

// A run whose simulated outcome differs from the committed one has wrong
// answers, whether the change shows from the first run (set-up included)
// or only in the timed passes: they count as failed ops and make the run
// incorrect.
func TestMeasureFailsOnAChangedOutcome(t *testing.T) {
	for _, from := range []int{1, 2} {
		calls := 0
		changed := func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
			res, err := smallSortAt(m, seed)
			calls++
			if err == nil && calls >= from {
				res.Time += 1e-6
			}
			return res, err
		}
		s, _, err := measure(smallWorkload(t, changed), time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		if res := summarize(s, false); res.Correct || res.Failed == 0 {
			t.Fatalf("outcome changed from run %d accepted: %+v", from, res)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/outcomes.json from the current code")

// TestCommittedOutcomes checks that testdata/outcomes.json covers the
// input pool of every direct op and that the code reproduces it: every
// input, or the first of each op with -short. With -update it rewrites the
// file instead; a rewrite records a change to the simulated outcomes and
// belongs with the change that makes it.
func TestCommittedOutcomes(t *testing.T) {
	if *update {
		table := outcomeTable{}
		for _, k := range directKinds {
			m, err := k.machine()
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < inputPool; j++ {
				phase.ResetStore()
				res, err := k.run(m, inputSeed(j))
				if err != nil {
					t.Fatalf("%s at seed %d: %v", k.name, inputSeed(j), err)
				}
				table[k.name] = append(table[k.name], committedOutcome{inputSeed(j), simOutOf(res)})
			}
		}
		out, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "outcomes.json"), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	table, err := committedOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != len(directKinds) {
		t.Errorf("outcomes for %d ops, want %d", len(table), len(directKinds))
	}
	for _, k := range directKinds {
		if len(table[k.name]) != inputPool {
			t.Fatalf("%s: %d committed outcomes, want %d", k.name, len(table[k.name]), inputPool)
		}
		m, err := k.machine()
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range table[k.name] {
			if c.Seed != inputSeed(j) {
				t.Fatalf("%s: input %d has seed %d, want %d", k.name, j, c.Seed, inputSeed(j))
			}
			if testing.Short() && j > 0 {
				continue
			}
			op := &directOp{opKind: k, m: m, seed: c.Seed, want: c.simOut}
			if _, err := op.runChecked(); err != nil {
				t.Error(err)
			}
		}
	}
}
