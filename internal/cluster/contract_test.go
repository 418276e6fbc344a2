package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// contractTarget is one daemon under the shared HTTP contract: its base URL,
// collection path, request bodies for each kind of job, and its readiness
// and drain controls.
type contractTarget struct {
	url, path string
	// body returns a submit body: "block" runs until the test ends, "finish"
	// reaches a terminal state at once, "unknown" carries a misspelled field.
	body     func(kind, key string) string
	setReady func(bool)
	shutdown func(context.Context) error
}

func (d *contractTarget) do(t *testing.T, method, path, body string, hdr ...string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

// submit posts a body and returns the status and the job id (if any).
func (d *contractTarget) submit(t *testing.T, body string) (*http.Response, string) {
	t.Helper()
	resp, data := d.do(t, http.MethodPost, d.path, body)
	var v struct {
		ID string `json:"id"`
	}
	json.Unmarshal([]byte(data), &v)
	return resp, v.ID
}

// waitState polls a job until it reaches state (or any terminal state when
// state is "terminal").
func (d *contractTarget) waitState(t *testing.T, id, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, data := d.do(t, http.MethodGet, d.path+"/"+id, "")
		var v struct {
			State string `json:"state"`
		}
		json.Unmarshal([]byte(data), &v)
		switch {
		case v.State == state,
			state == "terminal" && (v.State == "done" || v.State == "failed" || v.State == "cancelled"):
			return
		case time.Now().After(deadline):
			t.Fatalf("job %s stuck in %q, want %s", id, v.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newPilfilld serves a pilfilld with a capacity-1, one-worker queue and
// controllable tasks.
func newPilfilld(t *testing.T, release <-chan struct{}) *contractTarget {
	factory := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		return func(ctx context.Context, setPhase func(string)) (any, error) {
			if req.Method == "block" {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return nil, nil
		}, nil
	}
	srv, err := server.New(server.Config{Queue: jobqueue.Config{Capacity: 1, Workers: 1}, TaskFactory: factory})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return &contractTarget{
		url: ts.URL, path: "/v1/jobs",
		body: func(kind, key string) string {
			if kind == "unknown" {
				return `{"method":"finish","optoins":{}}`
			}
			return fmt.Sprintf(`{"method":%q,"key":%q}`, kind, key)
		},
		setReady: srv.SetReady,
		shutdown: srv.Shutdown,
	}
}

// newCoord serves a coordinator with a capacity-1, one-worker chip queue.
// Its only worker answers /readyz and holds every region submission until
// the test ends, so a valid chip blocks; a chip whose inline DEF does not
// parse fails at once.
func newCoord(t *testing.T, release <-chan struct{}) *contractTarget {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		io.Copy(io.Discard, r.Body) // lets the server notice a cancelled client
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, "released", http.StatusServiceUnavailable)
	}))
	coord, err := New(Config{Workers: []string{worker.URL}, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc, err := NewService(ServiceConfig{Coordinator: coord, Queue: jobqueue.Config{Capacity: 1, Workers: 1}})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		ts.Close()
		worker.Close()
	})
	return &contractTarget{
		url: ts.URL, path: "/v1/chips",
		body: func(kind, key string) string {
			switch kind {
			case "unknown":
				return `{"job":{"method":"greedy","cells_x":6,"cells_y":4,"optoins":{}}}`
			case "finish":
				return fmt.Sprintf(`{"key":%q,"job":{"method":"greedy","def":"not a layout"}}`, key)
			}
			return fmt.Sprintf(`{"key":%q,"job":{"method":"greedy","cells_x":6,"cells_y":4}}`, key)
		},
		setReady: svc.SetReady,
		shutdown: svc.Shutdown,
	}
}

// TestDaemonHTTPContract drives pilfilld and pilfill-coord through the same
// cases: both run on one job service, so the same request must get the same
// status, headers and body shape from either.
func TestDaemonHTTPContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, d *contractTarget)
	}{
		{"unknown id", func(t *testing.T, d *contractTarget) {
			for _, m := range []string{http.MethodGet, http.MethodDelete} {
				if resp, data := d.do(t, m, d.path+"/job-99999999", ""); resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s unknown id: %d %s, want 404", m, resp.StatusCode, data)
				}
			}
		}},
		{"cancel finished", func(t *testing.T, d *contractTarget) {
			resp, id := d.submit(t, d.body("finish", ""))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			d.waitState(t, id, "terminal")
			if resp, data := d.do(t, http.MethodDelete, d.path+"/"+id, ""); resp.StatusCode != http.StatusConflict {
				t.Errorf("DELETE finished: %d %s, want 409", resp.StatusCode, data)
			}
		}},
		{"malformed body", func(t *testing.T, d *contractTarget) {
			if resp, data := d.do(t, http.MethodPost, d.path, `{"method":`); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("malformed body: %d %s, want 400", resp.StatusCode, data)
			}
		}},
		{"unknown field", func(t *testing.T, d *contractTarget) {
			if resp, data := d.do(t, http.MethodPost, d.path, d.body("unknown", "")); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("unknown field: %d %s, want 400", resp.StatusCode, data)
			}
		}},
		{"queue full", func(t *testing.T, d *contractTarget) {
			resp, id := d.submit(t, d.body("block", ""))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("first submit: %d", resp.StatusCode)
			}
			d.waitState(t, id, "running")
			if resp, _ := d.submit(t, d.body("block", "")); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("second submit should fill the buffer: %d", resp.StatusCode)
			}
			resp, _ = d.submit(t, d.body("block", ""))
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
				t.Errorf("full queue: %d Retry-After %q, want 429 and 1",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}},
		{"submit while draining", func(t *testing.T, d *contractTarget) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if resp, _ := d.submit(t, d.body("finish", "")); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
			}
		}},
		{"key dedupe", func(t *testing.T, d *contractTarget) {
			resp, id := d.submit(t, d.body("finish", "k1"))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			resp, dup := d.submit(t, d.body("finish", "k1"))
			if resp.StatusCode != http.StatusOK || dup != id {
				t.Errorf("resubmit: %d id %q, want 200 id %q", resp.StatusCode, dup, id)
			}
		}},
		{"health and readiness", func(t *testing.T, d *contractTarget) {
			check := func(path string, code int, status string) {
				t.Helper()
				resp, data := d.do(t, http.MethodGet, path, "")
				var body struct {
					Status string `json:"status"`
				}
				if err := json.Unmarshal([]byte(data), &body); err != nil || resp.StatusCode != code || body.Status != status {
					t.Errorf("%s: %d %q, want %d {\"status\":%q}", path, resp.StatusCode, data, code, status)
				}
			}
			check("/healthz", http.StatusOK, "ok")
			check("/readyz", http.StatusOK, "ok")
			d.setReady(false)
			check("/healthz", http.StatusOK, "ok")
			check("/readyz", http.StatusServiceUnavailable, "draining")
		}},
		{"request id", func(t *testing.T, d *contractTarget) {
			if resp, _ := d.do(t, http.MethodGet, "/healthz", "", "X-Request-ID", "caller-7"); resp.Header.Get("X-Request-ID") != "caller-7" {
				t.Errorf("X-Request-ID %q, want caller-7 echoed", resp.Header.Get("X-Request-ID"))
			}
			if resp, _ := d.do(t, http.MethodGet, "/healthz", ""); resp.Header.Get("X-Request-ID") == "" {
				t.Error("no X-Request-ID minted")
			}
		}},
	}
	daemons := []struct {
		name string
		new  func(t *testing.T, release <-chan struct{}) *contractTarget
	}{{"pilfilld", newPilfilld}, {"pilfill-coord", newCoord}}
	for _, tc := range cases {
		for _, dm := range daemons {
			t.Run(tc.name+"/"+dm.name, func(t *testing.T) {
				release := make(chan struct{})
				d := dm.new(t, release)
				t.Cleanup(func() { close(release) })
				tc.run(t, d)
			})
		}
	}
}

// restartService builds a coordinator service over dir against workers.
func restartService(t *testing.T, dir string, workers []string) (*Service, *httptest.Server) {
	t.Helper()
	coord, err := New(Config{Workers: workers, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc, err := NewService(ServiceConfig{Coordinator: coord, Queue: jobqueue.Config{Capacity: 4, Workers: 1}, DataDir: dir})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		ts.Close()
	})
	return svc, ts
}

// TestChipWALReplaysCancelledChip: a keyed chip cancelled by a drain whose
// deadline has passed is not marked done, so a coordinator restarted on the
// same data dir resubmits it under its key and runs it to the reference
// result. An unheadered submit's minted request ID is the chip's trace ID.
func TestChipWALReplaysCancelledChip(t *testing.T) {
	dir := t.TempDir()
	stall := func(h http.Handler) http.Handler {
		return &stallMatching{inner: h, substr: `"id":"r`, d: 30 * time.Second}
	}
	svc1, ts1 := restartService(t, dir, []string{newWorker(t, stall).URL})
	job := testChip("greedy", 1, 1)
	body, _ := json.Marshal(ChipSubmitRequest{Key: "chip-k1", Job: job})
	resp, err := http.Post(ts1.URL+"/v1/chips", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var view ChipView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var prog chipProgressView
	getJSON(t, ts1.URL+"/v1/chips/"+view.ID+"/progress", &prog)
	if id := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "chip-") || prog.ChipProgress == nil || prog.TraceID != id {
		t.Fatalf("minted request id %q, chip trace %+v: want one chip- id", id, prog.ChipProgress)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc1.Shutdown(expired); err == nil {
		t.Fatal("drain with an expired context reported success")
	}
	if getJSON(t, ts1.URL+"/v1/chips/"+view.ID, &view); view.State != "cancelled" {
		t.Fatalf("chip %s after expired drain, want cancelled", view.State)
	}

	_, ts2 := restartService(t, dir, newCluster(t, 1))
	var list ChipListResponse
	getJSON(t, ts2.URL+"/v1/chips", &list)
	if len(list.Chips) != 1 || list.Chips[0].Key != "chip-k1" {
		t.Fatalf("restart replayed %+v, want the one keyed chip", list.Chips)
	}
	deadline := time.Now().Add(30 * time.Second)
	for view = list.Chips[0]; view.State != "done"; getJSON(t, ts2.URL+"/v1/chips/"+view.ID, &view) {
		if view.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("replayed chip %s: %s", view.State, view.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	prep, err := PrepareChip(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	if view.Report == nil || view.Report.FillHash != want.FillHash || view.Report.PerNetHash != want.PerNetHash {
		t.Fatalf("replayed chip report %+v, want fill hash %s", view.Report, want.FillHash)
	}
}

// TestChipWALSkipsUndecodableRecord: an accept record whose payload no
// longer decodes must not stop the coordinator from starting; it is marked
// done so it is not replayed again.
func TestChipWALSkipsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chips.wal")
	if err := os.WriteFile(path, []byte(`{"type":"accept","key":"k1","payload":"not-an-object"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, ts := restartService(t, dir, []string{"http://127.0.0.1:1"})
	var list ChipListResponse
	if getJSON(t, ts.URL+"/v1/chips", &list); len(list.Chips) != 0 {
		t.Fatalf("undecodable record replayed as %+v", list.Chips)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	svc.Shutdown(ctx)
	wal, recs, err := jobqueue.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if open := jobqueue.WALUnfinished(recs); len(open) != 0 {
		t.Fatalf("undecodable record still unfinished: %+v", open)
	}
}
