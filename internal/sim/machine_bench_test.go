package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// benchMachine is the shared body of the throughput benchmarks: one kernel
// under cfg, reporting simulated megacycles per wall second (the headline
// CI tracks) alongside the per-run counters and allocations.
func benchMachine(b *testing.B, kernel string, cfg Config) {
	w := workload.MustBuild(kernel, workload.Params{Size: 1024})
	er, _ := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		r, err := mc.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Stats.Cycles
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)*float64(b.N)/1e6/sec, "mcycles/s")
	}
	b.ReportMetric(float64(cycles), "sim-cycles/run")
	b.ReportMetric(float64(er.Insts), "sim-insts/run")
}

// benchConfig is the default machine under the given issue policy and
// recovery scheme.
func benchConfig(policy core.IssuePolicy, recovery core.RecoveryScheme) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Recovery = recovery
	return cfg
}

// BenchmarkMachine measures whole-machine simulation throughput in
// simulated cycles per wall second on the event-driven core.
func BenchmarkMachine(b *testing.B) {
	for _, k := range []string{"histogram", "vecsum"} {
		b.Run(k, func(b *testing.B) { benchMachine(b, k, benchConfig(core.IssueAggressive, core.RecoverDSRE)) })
	}
}

// BenchmarkMachineDense runs the same kernels under Config.SlowTick — every
// structure stepped every cycle, the pre-event-core behaviour — so the
// event-driven speedup is a single benchstat (or mcycles/s ratio) away.
func BenchmarkMachineDense(b *testing.B) {
	for _, k := range []string{"histogram", "vecsum"} {
		cfg := benchConfig(core.IssueAggressive, core.RecoverDSRE)
		cfg.SlowTick = true
		b.Run(k, func(b *testing.B) { benchMachine(b, k, cfg) })
	}
}

// BenchmarkMachineRecovery measures a recovery storm: stencil's loop-
// carried store→load pair violates about every other cycle under
// aggressive issue, so wave accounting, forensics and the squash-
// equivalent cost run on nearly every cycle (dsre), or every violation
// flushes the 8-frame window (aggressive+flush).
func BenchmarkMachineRecovery(b *testing.B) {
	for _, recovery := range []core.RecoveryScheme{core.RecoverDSRE, core.RecoverFlush} {
		cfg := benchConfig(core.IssueAggressive, recovery)
		cfg.Frames = 8
		b.Run("stencil/"+recovery.String(), func(b *testing.B) { benchMachine(b, "stencil", cfg) })
	}
}

// discardSink measures pure sampling overhead without collection cost.
type discardSink struct{ n int }

func (d *discardSink) Sample(Sample) { d.n++ }

// BenchmarkMachineSampler measures telemetry sampling overhead against the
// plain machine: "off" is the disabled hot path (one nil check per cycle),
// the numeric variants attach a sink at that window size.  DESIGN.md
// records the measured regression budget (<2%).
func BenchmarkMachineSampler(b *testing.B) {
	w := workload.MustBuild("histogram", workload.Params{Size: 1024})
	for _, every := range []int64{0, 1000, 100, 10} {
		name := "off"
		if every > 0 {
			name = fmt.Sprintf("every%d", every)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Policy = core.IssueAggressive
				cfg.Recovery = core.RecoverDSRE
				mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if every > 0 {
					mc.SetSampler(every, &discardSink{})
				}
				if _, err := mc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
