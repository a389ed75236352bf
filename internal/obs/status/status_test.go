package status

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testObserver() *obs.SweepObs {
	reg := obs.NewRegistry()
	reg.Counter("dsre_test_total", "test counter").Add(3)
	return obs.NewSweepObsInto(reg, time.Now(), nil, nil)
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(testObserver()))
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"status": "ok"`) ||
		!strings.Contains(body, `"sim_version"`) ||
		!strings.Contains(body, `"go_version"`) ||
		!strings.Contains(body, `"start_time_ms"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE dsre_test_total counter") ||
		!strings.Contains(body, "dsre_test_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, srv, "/progress"); code != http.StatusOK ||
		!strings.Contains(body, `"schema": "dsre-progress/v1"`) {
		t.Errorf("/progress = %d %q", code, body)
	}
	if code, body := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("/ = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get(t, srv, "/no/such/page"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// TestServeLifecycle pins the real listener path: bind on :0, resolve the
// address, answer a request, refuse bad addresses synchronously.
func TestServeLifecycle(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testObserver())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := Serve("256.0.0.1:bad", testObserver()); err == nil {
		t.Error("Serve accepted an unusable address")
	}
}
