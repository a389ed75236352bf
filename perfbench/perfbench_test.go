package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func TestSummarizeTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50      float64
		tail     float64
		pct      float64
		tailRank int
	}{
		{n: 100, p50: 50.5, tail: 90, pct: 90, tailRank: 90},
		{n: 200, p50: 100.5, tail: 190, pct: 95, tailRank: 190},
		{n: 11, p50: 6, tail: 1, pct: 100.0 / 11, tailRank: 1},
		// Ten or fewer samples: no percentile leaves ten above it, so the
		// tail is the maximum.
		{n: 10, p50: 5.5, tail: 10, pct: 100, tailRank: 10},
		{n: 1, p50: 1, tail: 1, pct: 100, tailRank: 1},
	} {
		s, err := summarize(seq(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailPct != tc.pct || s.TailRank != tc.tailRank {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v rank %d", tc.n, s, tc.p50, tc.tail, tc.pct, tc.tailRank)
		}
		if tc.n > tailBeyond && tc.n-s.TailRank != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, tc.n-s.TailRank, tailBeyond)
		}
	}
	if _, err := summarize(nil); err == nil {
		t.Error("summarize(nil) succeeded")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if err := validMetric(d.Name, d.Unit); err != nil {
				t.Error(err)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
	for _, bad := range [][2]string{
		{"_lead", "ms"}, {"has space", "ms"}, {strings.Repeat("x", 65), "ms"}, {"", "ms"},
		{"ok", ""}, {"ok", "m s"}, {"ok", strings.Repeat("u", 17)}, {"ok", "ms!"},
	} {
		if validMetric(bad[0], bad[1]) == nil {
			t.Errorf("validMetric(%q, %q) accepted", bad[0], bad[1])
		}
	}
	for _, good := range [][2]string{{"sim.host_ns_per_cycle", "ns/cycle"}, {"9x-y_z", "1/s"}, {"a", "%"}} {
		if err := validMetric(good[0], good[1]); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog pins the repository's BENCHMARK.json to
// the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

func TestServeGridDeterministic(t *testing.T) {
	const n = 30
	a, b := makeServeGrid(7, n), makeServeGrid(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different grids")
	}
	other := makeServeGrid(8, n)
	if reflect.DeepEqual(a.Sweeps, other.Sweeps) {
		t.Fatal("seeds 7 and 8 gave the same grid")
	}
	// Other seeds change the data seeds, not the kernel mix.
	for i, s := range a.Base {
		o := other.Base[i]
		if s.Workload != o.Workload || s.Size != o.Size || s.Scheme != o.Scheme || s.Seed == o.Seed {
			t.Fatalf("base point %d: %+v vs %+v", i, s, o)
		}
	}

	seen := map[string]bool{}
	hash := func(s sweep.JobSpec) string {
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, s := range a.Base {
		seen[hash(s)] = true
	}
	if len(seen) != basePoolSize {
		t.Fatalf("base pool has %d distinct points, want %d", len(seen), basePoolSize)
	}
	for k, sw := range a.Sweeps {
		if len(sw) != sweepSpecs {
			t.Fatalf("sweep %d has %d specs", k, len(sw))
		}
		inSweep := map[string]bool{}
		var fresh []string
		for _, s := range sw {
			if err := s.Validate(); err != nil {
				t.Fatalf("sweep %d: %v", k, err)
			}
			h := hash(s)
			if inSweep[h] {
				t.Fatalf("sweep %d repeats %s", k, s.Name())
			}
			inSweep[h] = true
			if !seen[h] {
				fresh = append(fresh, h)
			}
		}
		if len(fresh) != newPerSweep {
			t.Fatalf("sweep %d has %d new points, want %d", k, len(fresh), newPerSweep)
		}
		for _, h := range fresh {
			seen[h] = true
		}
	}
}

// smallJob is a quick simulation for the tests.
var smallJob = simJob{Workload: "vecsum", Size: 256, Scheme: "dsre", Frames: 8, Grid: 4}

func smallRun(t *testing.T) (*repro.Prepared, *repro.Result) {
	t.Helper()
	p, err := repro.Prepare(smallJob.Workload, smallJob.Size, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunPrepared(context.Background(), smallJob.config(), p)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestDigestCheck(t *testing.T) {
	_, res := smallRun(t)
	sum, err := statsDigest(&res.Sim)
	if err != nil {
		t.Fatal(err)
	}
	file := func(digest string) []byte {
		b, err := json.Marshal(digestFile{SimVersion: sim.Version, Jobs: map[string]jobDigest{
			smallJob.Name(): {Cycles: res.Cycles, Stats: digest},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d, err := loadDigests(file(sum))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.check(smallJob.Name(), &res.Sim); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	doctored := []byte(sum)
	if doctored[0] == '0' {
		doctored[0] = '1'
	} else {
		doctored[0] = '0'
	}
	d, err = loadDigests(file(string(doctored)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.check(smallJob.Name(), &res.Sim); err == nil || !strings.Contains(err.Error(), "simulated results changed") {
		t.Fatalf("doctored digest: got %v, want a mismatch", err)
	}
	if err := d.check("no/such/job", &res.Sim); err == nil {
		t.Fatal("job without a digest accepted")
	}

	var stale digestFile
	if err := json.Unmarshal(file(sum), &stale); err != nil {
		t.Fatal(err)
	}
	stale.SimVersion = "dsre-sim/v0"
	b, _ := json.Marshal(stale)
	if _, err := loadDigests(b); err == nil {
		t.Fatal("digests of another sim.Version accepted")
	}
}

func TestCommittedDigestsCoverEveryJob(t *testing.T) {
	d, err := loadDigests(digestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for name, w := range simWorkloads {
		for _, j := range w.Jobs {
			n++
			if _, ok := d.want.Jobs[j.Name()]; !ok {
				t.Errorf("%s: job %s has no committed digest", name, j.Name())
			}
		}
	}
	if len(d.want.Jobs) != n {
		t.Errorf("digests.json has %d jobs, the workloads %d", len(d.want.Jobs), n)
	}
}

// TestTracedRunMatchesRunPrepared pins the traced layer split to the
// façade: same Stats, bit for bit.
func TestTracedRunMatchesRunPrepared(t *testing.T) {
	_, res := smallRun(t)
	want, _ := statsDigest(&res.Sim)
	tr := newTracer()
	p, lt, err := prepareTraced(tr, 1, 0, smallJob.Workload, smallJob.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr, rt, err := runTraced(context.Background(), tr, 1, 0, smallJob.Name(), smallJob.config(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := statsDigest(&sr.Stats)
	if got != want {
		t.Fatalf("traced run digest %s, RunPrepared %s", got, want)
	}
	if lt.Build <= 0 || lt.Emu <= 0 || rt.New <= 0 || rt.Run <= 0 || rt.Verify <= 0 {
		t.Errorf("layer times not all recorded: %+v %+v", lt, rt)
	}
	names := map[string]bool{}
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	for _, n := range []string{"workload.build", "emu.prepare", "sim.new", "sim.run", "sim.verify"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) *pb {
	p.uvarint(uint64(field)<<3 | 0)
	p.uvarint(v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.uvarint(uint64(field)<<3 | 2)
	p.uvarint(uint64(len(b)))
	p.Write(b)
	return p
}

func (p *pb) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	p.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func TestSelfSamples(t *testing.T) {
	strs := []string{"", profileLabelKey, profileLabelRun, "repro/internal/lsq.(*Queue).TakeCertifiable", "runtime.mallocgc", "other"}
	prof := &pb{}
	sample := func(loc uint64, count uint64, labelled bool, packed bool) {
		s := &pb{}
		s.varint(1, loc)
		if packed {
			v := &pb{}
			v.uvarint(count)
			v.uvarint(count * 10_000_000)
			s.bytes(2, v.Bytes())
		} else {
			s.varint(2, count).varint(2, count*10_000_000)
		}
		if labelled {
			s.bytes(3, (&pb{}).varint(1, 1).varint(2, 2).Bytes())
		} else {
			s.bytes(3, (&pb{}).varint(1, 1).varint(2, 5).Bytes())
		}
		prof.bytes(2, s.Bytes())
	}
	sample(1, 3, true, true)
	sample(2, 2, true, false)
	sample(1, 5, false, true)
	for id, fn := range []uint64{3, 4} {
		line := (&pb{}).varint(1, uint64(id+1)).Bytes()
		prof.bytes(4, (&pb{}).varint(1, uint64(id+1)).bytes(4, line).Bytes())
		prof.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, fn).Bytes())
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	byPkg, total, err := selfSamples(gz.Bytes(), profileLabelKey, profileLabelRun)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || byPkg["lsq"] != 3 || byPkg["runtime"] != 2 || len(byPkg) != 2 {
		t.Fatalf("got %v total %d, want lsq 3 runtime 2 total 5", byPkg, total)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/lsq.(*Queue).TakeCertifiable":                                "lsq",
		"repro/internal/sched.(*Wheel[go.shape.struct { repro/internal/x.y }]).Push": "sched",
		"repro/internal/noc.routeXY":                                                 "noc",
		"runtime.mallocgc":                                                           "runtime",
		"repro.RunPrepared":                                                          "repro",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestServePhase drives a short serve-mixed phase with spans on, from
// every client slot at once, and checks the run invariants; then it
// doctors the phase's records to show that a duplicated, lost or
// re-executed job, or a traced pass that simulated something else, fails
// the checks.
func TestServePhase(t *testing.T) {
	g := makeServeGrid(3, 4)
	tr := newTracer()
	ph, err := runServePhase(context.Background(), g, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := checkPhase(g, ph); err != nil || failed != 0 {
		t.Fatalf("invariants: %d failed: %v", failed, err)
	}
	if want := len(g.Sweeps) * newPerSweep; ph.Unique != want || len(ph.Store.reports) != want {
		t.Fatalf("%d unique jobs, %d stored reports, want %d", ph.Unique, len(ph.Store.reports), want)
	}
	for _, o := range ph.Outcomes {
		if o.ServerMS <= 0 || o.ServerMS > ms(o.Latency)+1 {
			t.Fatalf("sweep %s: daemon-recorded %.0f ms, client saw %.1f ms", o.View.Sweep, o.ServerMS, ms(o.Latency))
		}
	}
	if len(tr.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if err := sameRecords(ph.Store, ph.Store); err != nil {
		t.Fatal(err)
	}

	doctored := newTimedStore(nil, nil)
	for hash, rep := range ph.Store.reports {
		doctored.reports[hash] = rep
	}
	for hash, rep := range doctored.reports {
		other := *rep
		other.Stats.LSQ.Loads++
		doctored.reports[hash] = &other
		break
	}
	if err := sameRecords(ph.Store, doctored); err == nil {
		t.Fatal("a traced pass with another sim.Stats passed the comparison")
	}

	ph.Cycles++
	if failed, err := checkPhase(g, ph); err == nil || failed == 0 {
		t.Fatal("engine cycles beyond the stored records passed the check")
	}
	ph.Cycles--
	for hash := range ph.Store.written {
		ph.Store.written[hash] = 2
		break
	}
	if failed, err := checkPhase(g, ph); err == nil || failed == 0 {
		t.Fatal("a job executed twice passed the check")
	}
	ph.Store.written = map[string]int{}
	if failed, err := checkPhase(g, ph); err == nil || failed == 0 {
		t.Fatal("lost jobs passed the check")
	}
}
