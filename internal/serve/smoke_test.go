package serve_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// TestServeSmokeLocal runs the serve-smoke CI job's "Validate API document
// schemas" and "Graceful drain" assertions in process, one to one, against
// a daemon wired like dsre-serve's but executing on two local slots with
// the real simulator (the CI job runs a fleet-only daemon, so this is the
// local path's end-to-end check).  A cold and a warm round of submits
// stand in for the dsre-load run.
func TestServeSmokeLocal(t *testing.T) {
	dir := t.TempDir()
	store, err := sweep.OpenStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	eventsPath := filepath.Join(dir, "daemon.events")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	sink := obs.NewJSONLSink(ef)
	start := time.Now()
	reg := obs.NewRegistry()
	spans := obs.NewSpanLog()
	engObs := obs.NewSweepObsInto(reg, start, sink, spans)
	srv, err := serve.New(serve.Config{
		Store: store, Obs: obs.NewServeObs(reg, start, sink, spans, 2),
		Engine:    sweep.New(sweep.Options{Workers: 2, Store: store, Obs: engObs}),
		EngineObs: engObs, LeaseTTL: 5 * time.Second,
		ManifestDir: filepath.Join(dir, "manifests"),
		Sink:        sink, SlowRequest: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := &daemon{srv: srv, ts: ts, store: store, spans: spans}

	grid := &sweep.Grid{Workloads: []string{"vecsum", "histogram"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32}}
	for round := 0; round < 2; round++ {
		for _, tenant := range []string{"c1", "c2"} {
			d.waitFinished(t, d.submit(t, tenant, grid).Sweep, 30*time.Second)
		}
	}

	t.Run("api schemas", func(t *testing.T) {
		getDoc := func(path string) map[string]any {
			t.Helper()
			var doc map[string]any
			if code := d.get(t, path, &doc); code != http.StatusOK {
				t.Fatalf("GET %s: HTTP %d", path, code)
			}
			return doc
		}
		// sweeps = json.load(".../sweeps.json")["sweeps"]; assert sweeps
		sweeps, _ := getDoc("/v1/sweeps")["sweeps"].([]any)
		if len(sweeps) == 0 {
			t.Fatal("daemon lists no sweeps after the load run")
		}
		for _, raw := range sweeps {
			s := raw.(map[string]any)
			if s["schema"] != "dsre-serve-sweep/v1" {
				t.Errorf("sweep schema %v", s["schema"])
			}
			if s["finished"] != true || s["failed"] != 0.0 {
				t.Errorf("sweep not finished clean: %v", s)
			}
		}

		first := sweeps[0].(map[string]any)["sweep"].(string)
		full := getDoc("/v1/sweeps/" + first)
		jobs, _ := full["jobs"].([]any)
		if full["schema"] != "dsre-serve-sweep/v1" || len(jobs) == 0 {
			t.Fatalf("sweep detail: %v", full)
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			seen[j.(map[string]any)["hash"].(string)] = true
		}
		hashes := make([]string, 0, len(seen))
		for h := range seen {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)

		manifest := getDoc("/v1/sweeps/" + first + "/manifest")
		if manifest["schema"] != "dsre-sweep-manifest/v1" {
			t.Errorf("manifest schema %v", manifest["schema"])
		}
		if mt := manifest["totals"].(map[string]any); mt["failed"] != 0.0 {
			t.Errorf("manifest totals %v", mt)
		}

		progress := getDoc("/progress")
		if progress["schema"] != "dsre-serve-progress/v1" {
			t.Errorf("progress schema %v", progress["schema"])
		}
		pt := progress["totals"].(map[string]any)
		if pt["done"] != pt["unique_jobs"] || pt["failed"] != 0.0 {
			t.Errorf("progress totals %v", pt)
		}
		if w, _ := progress["workers"].([]any); len(w) < 1 || len(w) > 2 {
			t.Errorf("progress workers %v, want 1 or 2", progress["workers"])
		}

		for _, h := range hashes {
			if art := getDoc("/v1/artifacts/" + h); art["schema"] != "dsre-sweep-record/v1" {
				t.Errorf("artifact %s schema %v", h, art["schema"])
			}
			if rep := getDoc("/v1/artifacts/" + h + "/report"); rep["schema"] != "dsre-report/v1" {
				t.Errorf("report %s schema %v", h, rep["schema"])
			}
			exp := getDoc("/v1/artifacts/" + h + "/explain")
			if runs, _ := exp["runs"].([]any); exp["schema"] != "dsre-explain/v1" || len(runs) == 0 {
				t.Errorf("explain %s: schema %v, %d runs", h, exp["schema"], len(runs))
			}
		}
	})

	t.Run("graceful drain", func(t *testing.T) {
		// kill -TERM; rc == 0: the drain returns inside its window.
		if abandoned := srv.Drain("sigterm", 30*time.Second); abandoned != 0 {
			t.Errorf("drain abandoned %d queued jobs", abandoned)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("event log: %v", err)
		}

		flushed, err := filepath.Glob(filepath.Join(dir, "manifests", "*.json"))
		if err != nil || len(flushed) == 0 {
			t.Fatalf("drain flushed no sweep manifests (%v)", err)
		}
		for _, p := range flushed {
			var m map[string]any
			if err := readJSONFile(p, &m); err != nil {
				t.Fatal(err)
			}
			if m["schema"] != "dsre-sweep-manifest/v1" {
				t.Errorf("%s: schema %v", filepath.Base(p), m["schema"])
			}
			if mt := m["totals"].(map[string]any); mt["failed"] != 0.0 {
				t.Errorf("%s: totals %v", filepath.Base(p), mt)
			}
		}

		f, err := os.Open(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		drained := false
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var e map[string]any
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("event line %q: %v", sc.Text(), err)
			}
			if e["schema"] != "dsre-events/v2" {
				t.Errorf("event schema %v", e)
			}
			if e["kind"] == "serve_drain" {
				drained = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !drained {
			t.Error("no serve_drain event in the daemon event log")
		}
	})
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
