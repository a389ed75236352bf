package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/account"
	"repro/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0), in print order.
// Every workload reports every one; see README.md for what each means on
// the simulator workloads and on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"sim_minsts_per_s", "Minsts/s"},
	{"ipc", "inst/cycle"},
	{"submit_done_p50_ms", "ms"},
	{"submit_done_tail_ms", "ms"},
	{"sweeps_per_s", "1/s"},
	{"success_rate", "ratio"},
}

// workCounts are the deterministic per-job counters read from sim.Stats,
// summed per workload; each is also reported per simulated cycle.
var workCounts = []struct {
	Name string
	Get  func(*sim.Stats) int64
}{
	{"noc.messages", func(s *sim.Stats) int64 { return s.Net.Messages }},
	{"noc.hops", func(s *sim.Stats) int64 { return s.Net.Hops }},
	{"noc.queue_wait_cycles", func(s *sim.Stats) int64 { return s.Net.QueueWait }},
	{"lsq.loads", func(s *sim.Stats) int64 { return s.LSQ.Loads }},
	{"lsq.stores", func(s *sim.Stats) int64 { return s.LSQ.Stores }},
	{"lsq.forwards", func(s *sim.Stats) int64 { return s.LSQ.Forwards }},
	{"lsq.violations", func(s *sim.Stats) int64 { return s.LSQ.Violations }},
	{"lsq.deferred_policy", func(s *sim.Stats) int64 { return s.LSQ.DeferredPolicy }},
	{"core.reexecs", func(s *sim.Stats) int64 { return s.Reexecs }},
	{"core.waves", func(s *sim.Stats) int64 { return s.WaveCount }},
	{"core.wave_reexecs", func(s *sim.Stats) int64 { return s.WaveReexecs }},
	{"core.dsre_corrections", func(s *sim.Stats) int64 { return s.DSRECorrections }},
	{"core.flushes", func(s *sim.Stats) int64 { return s.Flushes }},
	{"core.squashed_execs", func(s *sim.Stats) int64 { return s.SquashedExecs }},
	{"fetch.blocks_fetched", func(s *sim.Stats) int64 { return s.FetchedBlocks }},
	{"fetch.blocks_squashed", func(s *sim.Stats) int64 { return s.SquashedBlocks }},
	{"commit.blocks", func(s *sim.Stats) int64 { return s.CommittedBlocks }},
	{"exec.executed", func(s *sim.Stats) int64 { return s.Executed }},
	{"storeset.load_waits", func(s *sim.Stats) int64 { return s.StoreSet.LoadWaits }},
}

// profilePkgs are the simulator packages whose share of CPU-profile
// self-time samples inside Machine.RunContext is reported as
// cpu.<pkg>_share; everything else (runtime, bitset, mem, ...) is
// cpu.other_share.
var profilePkgs = []string{"noc", "lsq", "sim", "account", "core", "cache", "sched"}

// perLayer are the metrics of a traced run (--trace 1).  Layers a workload
// does not exercise read 0 (the serve layers on the simulator workloads).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"emu.prepare_ms", "ms"},
		{"sim.new_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.verify_ms", "ms"},
		{"sim.host_ns_per_cycle", "ns/cycle"},
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
		{"cpu.samples", "count"},
	}
	for _, p := range profilePkgs {
		defs = append(defs, metricDef{"cpu." + p + "_share", "ratio"})
	}
	defs = append(defs, metricDef{"cpu.other_share", "ratio"},
		metricDef{"sim.jobs", "count"},
		metricDef{"sim.cycles", "cycle"},
		metricDef{"sim.insts", "count"})
	for _, c := range workCounts {
		defs = append(defs, metricDef{c.Name, "count"}, metricDef{c.Name + ".per_cycle", "1/cycle"})
	}
	for b := account.Bucket(0); b < account.NumBuckets; b++ {
		defs = append(defs, metricDef{"cpi." + b.String(), "cycle/inst"})
	}
	return append(defs,
		metricDef{"lsq.peak_occupancy", "count"},
		metricDef{"cache.l1d_miss_rate", "ratio"},
		metricDef{"cache.l2_miss_rate", "ratio"},
		metricDef{"commit.useful_block_ratio", "ratio"},
		metricDef{"exec.useful_ratio", "ratio"},
		metricDef{"serve.ready_ms", "ms"},
		metricDef{"serve.specs", "count"},
		metricDef{"serve.dedup_ratio", "ratio"},
		metricDef{"engine.executions", "count"},
		metricDef{"engine.sim_s", "s"},
		metricDef{"store.gets", "count"},
		metricDef{"store.get_ms", "ms"},
		metricDef{"store.puts", "count"},
		metricDef{"store.put_ms", "ms"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"http.submit_ms", "ms"},
		metricDef{"http.poll_ms", "ms"},
		metricDef{"http.polls_per_sweep", "count"},
	)
}()

// outcome counts a run's attempted and failed operations; Err is the
// failure that ended it.
type outcome struct {
	Attempted, Failed int
	Err               error
}

// fail records err, if any, as one more failure and returns the outcome.
func (o outcome) fail(err error) outcome {
	if err != nil {
		o.Failed++
		o.Err = err
	}
	return o
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects a run's figures by name, with an optional note per
// metric (a base, a sample count, a percentile) for the readable report.
type metrics struct {
	vals  map[string]float64
	notes map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]float64{}, notes: map[string]string{}}
}

func (m *metrics) set(name string, v float64) { m.vals[name] = v }

func (m *metrics) note(name, format string, args ...any) {
	m.notes[name] = fmt.Sprintf(format, args...)
}

// build checks that m holds exactly the metrics of defs and returns them
// in result form.
func (m *metrics) build(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if err := validMetric(d.Name, d.Unit); err != nil {
			return nil, err
		}
		v, ok := m.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out) != len(m.vals) {
		for name := range m.vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// writeReport prints one line per metric, in defs order, with its unit and
// note.
func writeReport(w io.Writer, defs []metricDef, m *metrics) {
	for _, d := range defs {
		line := fmt.Sprintf("%-34s %16s %s", d.Name, strconv.FormatFloat(m.vals[d.Name], 'g', 8, 64), d.Unit)
		if n := m.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// hostFingerprint identifies the measuring host and build, so figures are
// never compared across hosts by mistake.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SimVersion string `json:"sim_version"`
}

func fingerprint() hostFingerprint {
	return hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SimVersion: sim.Version,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
