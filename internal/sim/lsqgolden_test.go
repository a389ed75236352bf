package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

var updateLSQGolden = flag.Bool("update-lsq-golden", false, "rewrite testdata/lsq_stats_golden.json")

// lsqGoldenPath pins the full sim.Stats of deep-window runs.
const lsqGoldenPath = "testdata/lsq_stats_golden.json"

// lsqGoldenSize keeps every pinned run small enough for tier-1.
const lsqGoldenSize = 1024

// TestLSQStatsGolden pins the simulated results of 64-frame (8,192-slot)
// windows on the LSQ-heavy kernels under every issue policy and both
// recovery schemes: the SHA-256 of each run's sim.Stats as JSON.  The LSQ's
// scans are pure host-side optimisations, so any change to them must leave
// every digest as recorded; only a declared model change (a Version bump)
// regenerates the file, with -update-lsq-golden.
func TestLSQStatsGolden(t *testing.T) {
	got := map[string]string{}
	for _, kernel := range []string{"histogram", "bank", "hashmap"} {
		w := workload.MustBuild(kernel, workload.Params{Size: lsqGoldenSize})
		golden, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []core.IssuePolicy{core.IssueAggressive, core.IssueConservative, core.IssueStoreSet, core.IssueOracle} {
			for _, recovery := range []core.RecoveryScheme{core.RecoverFlush, core.RecoverDSRE} {
				name := fmt.Sprintf("%s/%d/%s+%s/f64", kernel, lsqGoldenSize, policy, recovery)
				cfg := DefaultConfig()
				cfg.Frames = 64
				cfg.Policy = policy
				cfg.Recovery = recovery
				rw := workload.MustBuild(kernel, workload.Params{Size: lsqGoldenSize})
				mc, err := New(cfg, rw.Program, &rw.Regs, rw.Mem, golden.Oracle, nil)
				if err != nil {
					t.Fatal(err)
				}
				r, err := mc.Run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if r.Regs != golden.Regs || !r.Mem.Equal(golden.Mem) {
					t.Fatalf("%s: architectural divergence from the emulator", name)
				}
				b, err := json.Marshal(&r.Stats)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				got[name] = hex.EncodeToString(sum[:])
			}
		}
	}
	if *updateLSQGolden {
		b, err := json.MarshalIndent(struct {
			Version string            `json:"sim_version"`
			Stats   map[string]string `json:"stats_sha256"`
		}{Version, got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(lsqGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lsqGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lsqGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Version string            `json:"sim_version"`
		Stats   map[string]string `json:"stats_sha256"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Version != Version {
		t.Fatalf("%s was recorded for %s, the simulator is %s: regenerate it with -update-lsq-golden after a declared model change", lsqGoldenPath, want.Version, Version)
	}
	if len(want.Stats) != len(got) {
		t.Errorf("golden has %d runs, test made %d", len(want.Stats), len(got))
	}
	for name, sum := range got {
		if want.Stats[name] != sum {
			t.Errorf("%s: sim.Stats digest %s, golden %s: simulated results changed", name, sum[:12], want.Stats[name])
		}
	}
}
