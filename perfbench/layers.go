package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/account"
	"repro/internal/emu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// statsDigest is the SHA-256 of a run's sim.Stats as JSON: two runs of the
// same job agree on it exactly unless a change altered simulated results.
func statsDigest(s *sim.Stats) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("digest stats: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// layerTimes is host time spent in each layer call.
type layerTimes struct {
	Build, Emu, New, Run, Verify time.Duration
}

func (a *layerTimes) add(b layerTimes) {
	a.Build += b.Build
	a.Emu += b.Emu
	a.New += b.New
	a.Run += b.Run
	a.Verify += b.Verify
}

// prepareTraced is repro.Prepare split at its layer boundaries:
// workload.Build, then the golden emulator run with the dependence oracle
// and block trace.
func prepareTraced(tr *tracer, lane int, parent int64, name string, size int, seed uint64) (*repro.Prepared, layerTimes, error) {
	var lt layerTimes
	t0 := time.Now()
	w, err := workload.Build(name, workload.Params{Size: size, Seed: seed})
	t1 := time.Now()
	lt.Build = t1.Sub(t0)
	tr.add(span{Parent: parent, Lane: lane, Name: "workload.build", Start: t0, End: t1, Job: name})
	if err != nil {
		return nil, lt, err
	}
	golden, err := w.RunEmulator(emu.Options{CollectOracle: true, TraceBlocks: 1 << 30})
	t2 := time.Now()
	lt.Emu = t2.Sub(t1)
	tr.add(span{Parent: parent, Lane: lane, Name: "emu.prepare", Start: t1, End: t2, Job: name})
	if err != nil {
		return nil, lt, err
	}
	return &repro.Prepared{Workload: w, Golden: golden}, lt, nil
}

// runTraced is repro.RunPrepared split at its layer boundaries, in the
// order the façade calls them: sim.New with accounting enabled,
// Machine.RunContext (under the profiler label that selects its samples),
// then the comparison with the golden model.  It returns the same Stats
// RunPrepared would.
func runTraced(ctx context.Context, tr *tracer, lane int, parent int64, job string, cfg repro.Config, p *repro.Prepared) (*sim.Result, layerTimes, error) {
	var lt layerTimes
	sc, err := cfg.MachineConfig()
	if err != nil {
		return nil, lt, err
	}
	w, golden := p.Workload, p.Golden
	t0 := time.Now()
	mc, err := sim.New(sc, w.Program, &w.Regs, w.Mem, golden.Oracle, golden.BlockTrace)
	if err == nil {
		mc.EnableAccounting()
	}
	t1 := time.Now()
	lt.New = t1.Sub(t0)
	tr.add(span{Parent: parent, Lane: lane, Name: "sim.new", Start: t0, End: t1, Job: job})
	if err != nil {
		return nil, lt, err
	}
	var sr *sim.Result
	pprof.Do(ctx, pprof.Labels(profileLabelKey, profileLabelRun), func(ctx context.Context) {
		sr, err = mc.RunContext(ctx)
	})
	t2 := time.Now()
	lt.Run = t2.Sub(t1)
	tr.add(span{Parent: parent, Lane: lane, Name: "sim.run", Start: t1, End: t2, Job: job})
	if err != nil {
		return nil, lt, fmt.Errorf("%s: %w", job, err)
	}
	err = verify(sr, w, golden)
	t3 := time.Now()
	lt.Verify = t3.Sub(t2)
	tr.add(span{Parent: parent, Lane: lane, Name: "sim.verify", Start: t2, End: t3, Job: job})
	if err != nil {
		return nil, lt, fmt.Errorf("%s: %w", job, err)
	}
	return sr, lt, nil
}

// verify compares a simulated run with the golden model exactly as the
// repro façade does: committed blocks, registers, memory, then the
// kernel's own reference check.
func verify(sr *sim.Result, w *workload.Workload, golden *emu.Result) error {
	if sr.Blocks != golden.Blocks {
		return fmt.Errorf("committed %d blocks, golden model %d", sr.Blocks, golden.Blocks)
	}
	if sr.Regs != golden.Regs {
		return fmt.Errorf("architectural registers diverged from golden model")
	}
	if !sr.Mem.Equal(golden.Mem) {
		addr, _ := sr.Mem.FirstDiff(golden.Mem)
		return fmt.Errorf("memory diverged from golden model at %#x", addr)
	}
	if w.Check != nil {
		if err := w.Check(&sr.Regs, sr.Mem); err != nil {
			return fmt.Errorf("workload check: %w", err)
		}
	}
	return nil
}

// jobCounts is one simulated job's deterministic work counters.
type jobCounts struct {
	Stats sim.Stats
	Insts int64
}

// setWorkCounts reports the work counters of jobs (each job once): sums
// and per-cycle rates of every workCounts entry, the CPI stack in cycles
// per committed instruction, the peak LSQ occupancy, the mean cache miss
// rates and the useful-work ratios with their bases.
func setWorkCounts(m *metrics, jobs []jobCounts) {
	var cycles, insts int64
	var stack account.CPIStack
	var peak int
	var l1, l2 float64
	for _, j := range jobs {
		cycles += j.Stats.Cycles
		insts += j.Insts
		for b := account.Bucket(0); b < account.NumBuckets; b++ {
			stack.Add(b, j.Stats.Acct.Get(b))
		}
		peak = max(peak, j.Stats.LSQ.PeakOccupancy)
		l1 += j.Stats.L1DMissRate
		l2 += j.Stats.L2MissRate
	}
	m.set("sim.jobs", float64(len(jobs)))
	m.set("sim.cycles", float64(cycles))
	m.set("sim.insts", float64(insts))
	for _, c := range workCounts {
		var sum int64
		for i := range jobs {
			sum += c.Get(&jobs[i].Stats)
		}
		m.set(c.Name, float64(sum))
		m.set(c.Name+".per_cycle", ratio(float64(sum), float64(cycles)))
	}
	for b := account.Bucket(0); b < account.NumBuckets; b++ {
		m.set("cpi."+b.String(), ratio(float64(stack.Get(b))/account.SlotsPerCycle, float64(insts)))
	}
	m.set("lsq.peak_occupancy", float64(peak))
	m.set("cache.l1d_miss_rate", ratio(l1, float64(len(jobs))))
	m.set("cache.l2_miss_rate", ratio(l2, float64(len(jobs))))
	m.note("cache.l1d_miss_rate", "mean over %d jobs", len(jobs))
	m.note("cache.l2_miss_rate", "mean over %d jobs", len(jobs))
	m.set("commit.useful_block_ratio", ratio(m.vals["commit.blocks"], m.vals["fetch.blocks_fetched"]))
	m.note("commit.useful_block_ratio", "committed %d of %d fetched blocks", int64(m.vals["commit.blocks"]), int64(m.vals["fetch.blocks_fetched"]))
	var committedExecs int64
	for _, j := range jobs {
		committedExecs += j.Stats.CommittedExecs
	}
	m.set("exec.useful_ratio", ratio(float64(committedExecs), m.vals["exec.executed"]))
	m.note("exec.useful_ratio", "%d committed of %d executions", committedExecs, int64(m.vals["exec.executed"]))
}

// setProfileShares reports the package split of the CPU-profile samples
// taken inside Machine.RunContext.
func setProfileShares(m *metrics, prof []byte) error {
	byPkg, total, err := selfSamples(prof, profileLabelKey, profileLabelRun)
	if err != nil {
		return err
	}
	m.set("cpu.samples", float64(total))
	other := total
	for _, p := range profilePkgs {
		m.set("cpu."+p+"_share", ratio(float64(byPkg[p]), float64(total)))
		m.note("cpu."+p+"_share", "%d of %d samples", byPkg[p], total)
		other -= byPkg[p]
	}
	m.set("cpu.other_share", ratio(float64(other), float64(total)))
	m.note("cpu.other_share", "%d of %d samples", other, total)
	return nil
}
