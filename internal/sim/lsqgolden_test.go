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
		golden := goldenRun(t, kernel, lsqGoldenSize)
		for _, policy := range []core.IssuePolicy{core.IssueAggressive, core.IssueConservative, core.IssueStoreSet, core.IssueOracle} {
			for _, recovery := range []core.RecoveryScheme{core.RecoverFlush, core.RecoverDSRE} {
				name := fmt.Sprintf("%s/%d/%s+%s/f64", kernel, lsqGoldenSize, policy, recovery)
				cfg := DefaultConfig()
				cfg.Frames = 64
				cfg.Policy = policy
				cfg.Recovery = recovery
				got[name], _ = statsDigest(t, name, kernel, lsqGoldenSize, cfg, golden)
			}
		}
	}
	checkStatsGolden(t, lsqGoldenPath, "-update-lsq-golden", *updateLSQGolden, got)
}

// goldenRun is the emulator's reference result for kernel at size, with
// the oracle table the oracle issue policy needs.
func goldenRun(t *testing.T, kernel string, size int) *emu.Result {
	t.Helper()
	w := workload.MustBuild(kernel, workload.Params{Size: size})
	golden, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// statsDigest runs kernel at size under cfg, checks the architectural
// result against the emulator, and returns the SHA-256 of the run's
// sim.Stats as JSON, with the Stats themselves.
func statsDigest(t *testing.T, name, kernel string, size int, cfg Config, golden *emu.Result) (string, *Stats) {
	t.Helper()
	w := workload.MustBuild(kernel, workload.Params{Size: size})
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, golden.Oracle, nil)
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
	return hex.EncodeToString(sum[:]), &r.Stats
}

// checkStatsGolden compares run digests with the golden file at path, or
// rewrites the file when update (the test's updateFlag) is set.
func checkStatsGolden(t *testing.T, path, updateFlag string, update bool, got map[string]string) {
	t.Helper()
	if update {
		b, err := json.MarshalIndent(struct {
			Version string            `json:"sim_version"`
			Stats   map[string]string `json:"stats_sha256"`
		}{Version, got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
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
		t.Fatalf("%s was recorded for %s, the simulator is %s: regenerate it with %s after a declared model change", path, want.Version, Version, updateFlag)
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
