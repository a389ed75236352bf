package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro"
	"repro/internal/sim"
)

// digestsJSON is the committed expected sim.Stats digest of every
// simulator-workload job.  Regenerate it only for a declared model change
// (a sim.Version bump): see README.md.
//
//go:embed digests.json
var digestsJSON []byte

// digestFile is the layout of digests.json.
type digestFile struct {
	SimVersion string               `json:"sim_version"`
	Jobs       map[string]jobDigest `json:"jobs"`
}

// jobDigest pins one job: its cycle count for readers, and the SHA-256 of
// its sim.Stats as JSON.
type jobDigest struct {
	Cycles int64  `json:"cycles"`
	Stats  string `json:"stats_sha256"`
}

// digests checks each simulated job's Stats against the expected digests,
// or, in record mode, collects them for a new digests.json.
type digests struct {
	want digestFile

	record bool
	mu     sync.Mutex
	got    map[string]jobDigest
}

func loadDigests(b []byte) (*digests, error) {
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	if f.SimVersion != sim.Version {
		return nil, fmt.Errorf("digests were recorded for %s but the simulator is %s: after a declared model change, regenerate them with -write-digests", f.SimVersion, sim.Version)
	}
	return &digests{want: f}, nil
}

// check compares a job's Stats digest with the expected one.
func (d *digests) check(job string, s *sim.Stats) error {
	sum, err := statsDigest(s)
	if err != nil {
		return err
	}
	if d.record {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.got[job] = jobDigest{Cycles: s.Cycles, Stats: sum}
		return nil
	}
	want, ok := d.want.Jobs[job]
	if !ok {
		return fmt.Errorf("job %s has no expected digest: add it with -write-digests", job)
	}
	if want.Stats != sum {
		return fmt.Errorf("job %s: sim.Stats digest %s (%d cycles) differs from the expected %s (%d cycles): simulated results changed", job, sum[:12], s.Cycles, want.Stats[:min(12, len(want.Stats))], want.Cycles)
	}
	return nil
}

// write saves the recorded digests as a digests.json.
func (d *digests) write(path string) error {
	f := digestFile{SimVersion: sim.Version, Jobs: d.got}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeDigests runs one pass of every simulator workload and saves the
// digests of its jobs.
func writeDigests(ctx context.Context, path string) error {
	d := &digests{record: true, got: map[string]jobDigest{}}
	for name, w := range simWorkloads {
		preps := map[kernelKey]*repro.Prepared{}
		for _, k := range w.kernels() {
			p, err := repro.Prepare(k.Workload, k.Size, 0, 0)
			if err != nil {
				return fmt.Errorf("prepare %s/%d: %w", k.Workload, k.Size, err)
			}
			preps[k] = p
		}
		if _, err := w.runPass(ctx, preps, d, 1, 0, nil); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return d.write(path)
}
