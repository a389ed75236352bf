package sim

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/core"
)

var updateRecoveryGolden = flag.Bool("update-recovery-golden", false, "rewrite testdata/recovery_stats_golden.json")

// recoveryGoldenPath pins the full sim.Stats of violation-heavy runs.
const recoveryGoldenPath = "testdata/recovery_stats_golden.json"

// recoveryGoldenSize keeps every pinned run small enough for tier-1.
const recoveryGoldenSize = 1024

// TestRecoveryStatsGolden pins the simulated results of recovery storms:
// stencil's loop-carried store→load pair violates every iteration under
// aggressive issue, so these runs exercise wave accounting, forensics and
// the squash-equivalent cost on nearly every cycle.  The value-prediction
// arms add correction waves; stencil's in-place values are not
// stride-predictable, so queue's arm is the one that pins forensics' VP
// events and their wave sizes.  Recovery bookkeeping is a host-side
// concern, so any change to it must leave every digest as recorded; only a
// declared model change (a Version bump) regenerates the file, with
// -update-recovery-golden.
func TestRecoveryStatsGolden(t *testing.T) {
	got := map[string]string{}
	run := func(kernel string, frames int, recovery core.RecoveryScheme, vp bool) *Stats {
		name := fmt.Sprintf("%s/%d/%s+%s/f%d", kernel, recoveryGoldenSize, core.IssueAggressive, recovery, frames)
		if vp {
			name += "/vp"
		}
		cfg := DefaultConfig()
		cfg.Frames = frames
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = recovery
		cfg.ValuePredict = vp
		var s *Stats
		got[name], s = statsDigest(t, name, kernel, recoveryGoldenSize, cfg, goldenRun(t, kernel, recoveryGoldenSize))
		return s
	}
	for _, frames := range []int{8, 64} {
		for _, recovery := range []core.RecoveryScheme{core.RecoverDSRE, core.RecoverFlush} {
			run("stencil", frames, recovery, false)
		}
	}
	run("stencil", 8, core.RecoverDSRE, true)
	if s := run("queue", 8, core.RecoverDSRE, true); s.Forensics.VPEvents == 0 {
		t.Errorf("queue+vp made no VP events: the golden no longer pins value-prediction repairs")
	}
	checkStatsGolden(t, recoveryGoldenPath, "-update-recovery-golden", *updateRecoveryGolden, got)
}
