// Command perfbench is the repository benchmark.  It runs one workload per
// invocation, checks every simulated result, and prints each metric by
// name with its unit, ending with a one-line JSON result:
//
//	go run . --workload deep-window --seed 1 --seconds 10 --trace 0
//
// Simulator workloads (deep-window, stream-mesh, recovery-storm) run a
// fixed job list one job at a time; serve-mixed drives an in-process
// dsre-serve daemon from two clients with several sweeps outstanding each.  --trace 0 reports
// the end-to-end metrics; --trace 1 makes a separate traced run that
// reports the per-layer metrics, the CPU-profile package split and the
// tracing overhead, and writes the spans as a Chrome trace.  README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// outDir holds the benchmark's traces, result documents and serve-mixed
// stores, relative to the working directory (the repository root).
const outDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured work, in seconds on the reference host")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	writeDigestsTo := flag.String("write-digests", "", "record the sim.Stats digests of every simulator job into this file and exit")
	flag.Parse()

	ctx := context.Background()
	if *writeDigestsTo != "" {
		if err := writeDigests(ctx, *writeDigestsTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(ctx, *workload, *seed, *seconds, *trace == 1))
}

func workloadNames() []string {
	names := []string{serveWorkload}
	for name := range simWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run measures one workload and prints its report; it returns the exit
// code: 0 when every output was correct, 1 otherwise.
func run(ctx context.Context, workload string, seed int64, seconds int, traced bool) int {
	dig, err := loadDigests(digestsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := fingerprint()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s sim=%s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.SimVersion)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", workload, seed, seconds, traced)

	tag := fmt.Sprintf("%s-seed%d-trace0", workload, seed)
	if traced {
		tag = fmt.Sprintf("%s-seed%d-trace1", workload, seed)
	}
	traceOut := filepath.Join(outDir, tag+".trace.json")
	m := newMetrics()
	var run outcome
	if w, ok := simWorkloads[workload]; ok {
		run = runSim(ctx, w, seed, seconds, traced, dig, m, traceOut)
	} else if workload == serveWorkload {
		run = runServe(ctx, seed, seconds, traced, m, filepath.Join(outDir, tag), traceOut)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", workload, workloadNames())
		return 2
	}
	if run.Err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", run.Err)
		printResult(result{Correct: false, Attempted: max(run.Attempted, 1), Failed: max(run.Failed, 1), Metrics: map[string]metricValue{}})
		return 1
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	vals, err := m.build(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	writeReport(os.Stdout, defs, m)
	doc := map[string]any{
		"host": host, "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"metrics": vals, "notes": m.notes,
	}
	if traced {
		doc["chrome_trace"] = traceOut
		fmt.Println("chrome trace:", traceOut)
	}
	docPath := filepath.Join(outDir, tag+".result.json")
	if err := writeJSONFile(docPath, doc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("result document:", docPath)
	printResult(result{Correct: true, Attempted: run.Attempted, Failed: run.Failed, Metrics: vals})
	return 0
}

// printResult prints the result as the last line of standard output.
func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a result of numbers and strings always marshals
	}
	fmt.Println(string(line))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
