package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
)

// simJob is one simulation point of a simulator workload.
type simJob struct {
	Workload string
	Size     int // 0 = kernel default
	Scheme   string
	Frames   int
	Grid     int // square execution-tile grid side
}

// Name identifies the job in the digest file and the trace.
func (j simJob) Name() string {
	return fmt.Sprintf("%s/%d/%s/f%d/g%dx%d", j.Workload, j.Size, j.Scheme, j.Frames, j.Grid, j.Grid)
}

func (j simJob) config() repro.Config {
	return repro.Config{
		Workload: j.Workload, Size: j.Size, Scheme: j.Scheme,
		Frames: j.Frames, GridWidth: j.Grid, GridHeight: j.Grid,
	}
}

// kernelKey is what a job's repro.Prepare depends on.
type kernelKey struct {
	Workload string
	Size     int
}

// simWorkload is a fixed list of simulation jobs; one pass runs each once.
type simWorkload struct {
	Jobs []simJob
	// PassSeconds is the host time of one pass on the reference host (see
	// README.md).  A run of --seconds S makes round(S/PassSeconds) passes
	// (at least minPasses), so every run of one S does the same work.
	PassSeconds float64
}

// minPasses keeps at least this many passes, so the per-pass medians and
// the job-latency tail rest on enough samples.
const minPasses = 2

// setupReps is how many times set-up is repeated to report its median.
const setupReps = 15

func crossJobs(kernels []string, size int, schemes []string, frames, grid int) []simJob {
	var jobs []simJob
	for _, k := range kernels {
		for _, s := range schemes {
			jobs = append(jobs, simJob{Workload: k, Size: size, Scheme: s, Frames: frames, Grid: grid})
		}
	}
	return jobs
}

var simWorkloads = map[string]simWorkload{
	// The paper's thousands-of-instructions regime: an 8,192-instruction
	// window whose host time is dominated by the LSQ.
	"deep-window": {
		Jobs:        crossJobs([]string{"histogram", "bank", "hashmap"}, 4096, []string{"dsre", "storeset+flush"}, 64, 4),
		PassSeconds: 2.5,
	},
	// Violation-free streaming on a large mesh: NoC and tile stepping,
	// with the LSQ and recovery nearly idle.
	"stream-mesh": {
		Jobs:        crossJobs([]string{"vecsum", "dotprod", "listsum", "spmv", "matmul"}, 0, []string{"dsre"}, 8, 8),
		PassSeconds: 0.75,
	},
	// A violation every cycle or two: recovery, wave delivery and the
	// forensics accounting.
	"recovery-storm": {
		Jobs:        crossJobs([]string{"stencil"}, 8192, []string{"dsre", "aggressive+flush"}, 8, 4),
		PassSeconds: 2.0,
	},
}

// passes is the pass count of a run of the given length.
func (w simWorkload) passes(seconds int) int {
	n := int(float64(seconds)/w.PassSeconds + 0.5)
	return max(n, minPasses)
}

// kernels lists the distinct workload builds the jobs need, in job order.
func (w simWorkload) kernels() []kernelKey {
	var ks []kernelKey
	seen := map[kernelKey]bool{}
	for _, j := range w.Jobs {
		k := kernelKey{j.Workload, j.Size}
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// order is the job order of pass p: a permutation drawn from the seed.
// Job order is the only input the seed changes on these workloads, so the
// committed per-job digests hold for every seed.
func (w simWorkload) order(seed int64, p int) []simJob {
	jobs := append([]simJob(nil), w.Jobs...)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(p)))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

// setup prepares every kernel setupReps times (tr != nil splits each
// prepare at its layer boundaries) and returns the last set with the
// median set-up CPU time and, when traced, the median layer times.
func (w simWorkload) setup(tr *tracer) (map[kernelKey]*repro.Prepared, float64, layerTimes, error) {
	var preps map[kernelKey]*repro.Prepared
	var secs []float64
	var builds, emus []float64
	for r := 0; r < setupReps; r++ {
		preps = nil // release the previous set before building the next
		runtime.GC()
		preps = map[kernelKey]*repro.Prepared{}
		var lt layerTimes
		c0 := processCPU()
		for _, k := range w.kernels() {
			var p *repro.Prepared
			var err error
			if tr == nil {
				p, err = repro.Prepare(k.Workload, k.Size, 0, 0)
			} else {
				var kt layerTimes
				p, kt, err = prepareTraced(tr, laneSetup, 0, k.Workload, k.Size, 0)
				lt.add(kt)
			}
			if err != nil {
				return nil, 0, layerTimes{}, fmt.Errorf("prepare %s/%d: %w", k.Workload, k.Size, err)
			}
			preps[k] = p
		}
		secs = append(secs, (processCPU() - c0).Seconds())
		builds = append(builds, lt.Build.Seconds())
		emus = append(emus, lt.Emu.Seconds())
	}
	med := layerTimes{
		Build: time.Duration(median(builds) * float64(time.Second)),
		Emu:   time.Duration(median(emus) * float64(time.Second)),
	}
	return preps, median(secs), med, nil
}

// Trace lanes of the simulator workloads.
const (
	laneSetup = 1
	laneJobs  = 2
)

// passResult is what one pass over a workload's jobs measured.
type passResult struct {
	Wall   time.Duration
	JobCPU []time.Duration // per job, process CPU time in RunPrepared (or its traced split)
	Names  []string        // job names, parallel to JobCPU
	Cycles int64
	Insts  int64
	Times  layerTimes // traced passes only
	Jobs   []jobCounts
	IPC    []float64
}

// runPass runs every job once in the seed's order for pass p, checking each
// job's Stats digest.  With tr == nil each job goes through
// repro.RunPrepared; otherwise through runTraced.
func (w simWorkload) runPass(ctx context.Context, preps map[kernelKey]*repro.Prepared, dig *digests, seed int64, p int, tr *tracer) (passResult, error) {
	var pr passResult
	start := time.Now()
	for _, j := range w.order(seed, p) {
		prep := preps[kernelKey{j.Workload, j.Size}]
		t0, c0 := time.Now(), processCPU()
		var jc jobCounts
		if tr == nil {
			res, err := repro.RunPrepared(ctx, j.config(), prep)
			if err != nil {
				return pr, err
			}
			jc = jobCounts{Stats: res.Sim, Insts: res.Insts}
		} else {
			id := tr.newID()
			sr, lt, err := runTraced(ctx, tr, laneJobs, id, j.Name(), j.config(), prep)
			if err != nil {
				return pr, err
			}
			tr.add(span{ID: id, Lane: laneJobs, Name: "job", Start: t0, End: time.Now(), Job: j.Name()})
			pr.Times.add(lt)
			jc = jobCounts{Stats: sr.Stats, Insts: prep.Golden.Insts}
		}
		pr.JobCPU = append(pr.JobCPU, processCPU()-c0)
		pr.Names = append(pr.Names, j.Name())
		if err := dig.check(j.Name(), &jc.Stats); err != nil {
			return pr, err
		}
		pr.Cycles += jc.Stats.Cycles
		pr.Insts += jc.Insts
		pr.Jobs = append(pr.Jobs, jc)
		pr.IPC = append(pr.IPC, float64(jc.Insts)/float64(jc.Stats.Cycles))
	}
	pr.Wall = time.Since(start)
	return pr, nil
}

// runSim measures a simulator workload.  Untraced, it reports the
// end-to-end metrics over round(seconds/PassSeconds) passes.  Traced, it
// makes half as many untraced passes and then as many traced ones, and
// reports the per-layer metrics with the difference in wall time as the
// tracing overhead.
func runSim(ctx context.Context, w simWorkload, seed int64, seconds int, traced bool, dig *digests, m *metrics, traceOut string) outcome {
	var run outcome
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.lane(laneSetup, "set-up")
		tr.lane(laneJobs, "jobs")
	}
	preps, setupS, setupTimes, err := w.setup(tr)
	if err != nil {
		return run.fail(err)
	}
	passes := w.passes(seconds)
	if !traced {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		var prs []passResult
		for p := 0; p < passes; p++ {
			pr, err := w.runPass(ctx, preps, dig, seed, p, nil)
			run.Attempted += len(pr.JobCPU)
			if err != nil {
				run.Attempted++
				return run.fail(err)
			}
			prs = append(prs, pr)
		}
		runtime.ReadMemStats(&ms1)
		rss, err := peakRSSMB()
		if err != nil {
			return run.fail(err)
		}
		m.set("setup_s", setupS)
		m.note("setup_s", "CPU time, median of %d prepares of %d kernels", setupReps, len(w.kernels()))
		m.set("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		m.note("alloc_mb", "Go heap allocated over %d passes", passes)
		m.set("peak_rss_mb", rss)
		return run.fail(setSimEndToEnd(m, prs))
	}

	half := max(passes/2, 1)
	var plain, withTrace time.Duration
	for p := 0; p < half; p++ {
		pr, err := w.runPass(ctx, preps, dig, seed, p, nil)
		run.Attempted += len(pr.JobCPU)
		if err != nil {
			run.Attempted++
			return run.fail(err)
		}
		plain += pr.Wall
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return run.fail(fmt.Errorf("cpu profile: %w", err))
	}
	var prs []passResult
	for p := 0; p < half; p++ {
		pr, err := w.runPass(ctx, preps, dig, seed, p, tr)
		run.Attempted += len(pr.JobCPU)
		if err != nil {
			pprof.StopCPUProfile()
			run.Attempted++
			return run.fail(err)
		}
		withTrace += pr.Wall
		prs = append(prs, pr)
	}
	pprof.StopCPUProfile()

	m.set("workload.build_ms", ms(setupTimes.Build))
	m.set("emu.prepare_ms", ms(setupTimes.Emu))
	m.note("workload.build_ms", "per set-up of %d kernels, median of %d", len(w.kernels()), setupReps)
	m.note("emu.prepare_ms", "per set-up of %d kernels, median of %d", len(w.kernels()), setupReps)
	var news, runs, verifies, nsPerCycle []float64
	for _, pr := range prs {
		news = append(news, ms(pr.Times.New))
		runs = append(runs, ms(pr.Times.Run))
		verifies = append(verifies, ms(pr.Times.Verify))
		nsPerCycle = append(nsPerCycle, float64(pr.Times.Run.Nanoseconds())/float64(pr.Cycles))
	}
	for name, xs := range map[string][]float64{"sim.new_ms": news, "sim.run_ms": runs, "sim.verify_ms": verifies} {
		m.set(name, median(xs))
		m.note(name, "per pass of %d jobs, median of %d passes", len(w.Jobs), len(prs))
	}
	m.set("sim.host_ns_per_cycle", median(nsPerCycle))
	m.note("sim.host_ns_per_cycle", "RunContext host ns per simulated cycle, median of %d passes", len(prs))
	setOverhead(m, plain, withTrace, fmt.Sprintf("%d passes", half))
	if err := setProfileShares(m, prof.Bytes()); err != nil {
		return run.fail(err)
	}
	setWorkCounts(m, prs[0].Jobs)
	setServeLayersIdle(m)
	if err := tr.write(traceOut); err != nil {
		return run.fail(err)
	}
	return run
}

// setSimEndToEnd reports the simulator workloads' throughput and latency
// metrics.  A "submission" here is one job through RunPrepared and a
// "sweep" one pass over the workload's jobs.  Host time is process CPU
// time, so time spent waiting behind other processes is left out.  The jobs of one workload
// differ in cost several-fold, so pooled job latencies cluster by job and
// their median or tail can fall between two clusters; the latencies are
// summarized per job instead (over passes) and the job figures combined
// by geometric mean.
func setSimEndToEnd(m *metrics, prs []passResult) error {
	var mcps, mips, passS []float64
	perJob := map[string][]float64{}
	for _, pr := range prs {
		var host time.Duration
		for i, d := range pr.JobCPU {
			host += d
			perJob[pr.Names[i]] = append(perJob[pr.Names[i]], ms(d))
		}
		mcps = append(mcps, float64(pr.Cycles)/host.Seconds()/1e6)
		mips = append(mips, float64(pr.Insts)/host.Seconds()/1e6)
		passS = append(passS, host.Seconds())
	}
	m.set("sim_mcycles_per_s", median(mcps))
	m.note("sim_mcycles_per_s", "per CPU second, median of %d passes", len(prs))
	m.set("sim_minsts_per_s", median(mips))
	m.note("sim_minsts_per_s", "per CPU second, median of %d passes", len(prs))
	m.set("ipc", geomean(prs[0].IPC))
	m.note("ipc", "geometric mean over %d jobs", len(prs[0].IPC))
	var p50s, tails []float64
	var lat latencySummary
	for _, xs := range perJob {
		s, err := summarize(xs)
		if err != nil {
			return fmt.Errorf("job latency: %w", err)
		}
		lat = s
		p50s = append(p50s, s.P50)
		tails = append(tails, s.Tail)
	}
	m.set("submit_done_p50_ms", geomean(p50s))
	m.note("submit_done_p50_ms", "per-job CPU-time median of %d samples, geometric mean over %d jobs", lat.N, len(perJob))
	m.set("submit_done_tail_ms", geomean(tails))
	m.note("submit_done_tail_ms", "per-job p%.1f (rank %d of %d samples), geometric mean over %d jobs", lat.TailPct, lat.TailRank, lat.N, len(perJob))
	m.set("sweeps_per_s", 1/median(passS))
	m.note("sweeps_per_s", "passes per CPU second, median of %d passes", len(prs))
	m.set("success_rate", 1)
	return nil
}

// setOverhead reports traced minus untraced wall time over equal work.
func setOverhead(m *metrics, plain, traced time.Duration, work string) {
	m.set("trace.overhead_ms", ms(traced-plain))
	m.note("trace.overhead_ms", "traced %.1f ms - untraced %.1f ms over %s", ms(traced), ms(plain), work)
	m.set("trace.overhead_ratio", ratio(ms(traced-plain), ms(plain)))
}

// setServeLayersIdle reports the serve-path layers, which the simulator
// workloads do not exercise, as zero.
func setServeLayersIdle(m *metrics) {
	for _, name := range []string{
		"serve.ready_ms", "serve.specs", "serve.dedup_ratio", "engine.executions", "engine.sim_s",
		"store.gets", "store.get_ms", "store.puts", "store.put_ms", "store.hit_ratio",
		"http.submit_ms", "http.poll_ms", "http.polls_per_sweep",
	} {
		m.set(name, 0)
		m.note(name, "layer not exercised")
	}
}

// setSimLayersIdle reports the simulator's span and profile split, which
// is measured on the simulator workloads only, as zero.
func setSimLayersIdle(m *metrics) {
	names := []string{"workload.build_ms", "emu.prepare_ms", "sim.new_ms", "sim.run_ms", "sim.verify_ms", "sim.host_ns_per_cycle", "cpu.samples", "cpu.other_share"}
	for _, p := range profilePkgs {
		names = append(names, "cpu."+p+"_share")
	}
	for _, name := range names {
		m.set(name, 0)
		m.note(name, "measured on the simulator workloads")
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
