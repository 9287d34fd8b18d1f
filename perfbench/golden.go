package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"quantpar/internal/experiments"
	"quantpar/internal/runstore"
)

// goldenDir holds the committed quick-scale artifacts of every experiment,
// relative to the repository root the benchmark runs from.
const goldenDir = "internal/runstore/testdata/golden"

// goldenSet maps an experiment ID to the committed artifact bytes whose
// fingerprint matches the benchmark's run context. An ID missing from the
// map has no golden for this context.
type goldenSet map[string][]byte

// loadGoldens reads the golden store's manifest and, for every experiment,
// the artifact stored under the fingerprint ctx gives it. The store is read
// directly rather than through runstore.Open, which would create a missing
// directory instead of reporting it.
func loadGoldens(dir string, exps []experiments.Experiment, ctx *experiments.Context) (goldenSet, error) {
	raw, err := os.ReadFile(filepath.Join(dir, runstore.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("golden store: %w", err)
	}
	var man runstore.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("golden store: decoding manifest: %w", err)
	}
	files := make(map[string]string, len(man.Entries))
	for _, e := range man.Entries {
		files[e.Fingerprint] = e.File
	}
	out := goldenSet{}
	for _, e := range exps {
		cfg, err := runstore.ExperimentConfig(e, ctx)
		if err != nil {
			return nil, err
		}
		fp, err := runstore.Fingerprint(cfg)
		if err != nil {
			return nil, err
		}
		name, ok := files[fp]
		if !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("golden store: %w", err)
		}
		out[e.ID] = b
	}
	return out, nil
}

// encodeArtifact encodes an outcome exactly as qpexp -out stores it.
func encodeArtifact(e experiments.Experiment, ctx *experiments.Context, o *experiments.Outcome) ([]byte, error) {
	cfg, err := runstore.ExperimentConfig(e, ctx)
	if err != nil {
		return nil, err
	}
	a, err := runstore.New(cfg, o)
	if err != nil {
		return nil, err
	}
	return runstore.Encode(a)
}

// check reports whether an experiment's encoded artifact is byte-identical
// to its golden; a missing golden is a failure.
func (g goldenSet) check(id string, got []byte) error {
	want, ok := g[id]
	if !ok {
		return fmt.Errorf("%s: no golden artifact for the benchmark context", id)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("%s: artifact differs from its golden at byte %d", id, i)
	}
	return nil
}
