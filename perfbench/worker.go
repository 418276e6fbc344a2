package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// The cluster_scatter workers are processes of this binary in -worker mode,
// each serving one server.New over loopback HTTP through the benchmark's
// counting wrapper. Separate processes keep each worker's heap, and so its
// peak RSS, independent of the other's garbage-collection timing; in one
// shared heap the two engines and the garbage between region jobs overlap
// differently on every run.

// statsPath serves the wrapper's counters and the queue's job figures. It
// bypasses the wrapper, so reading it counts nothing.
const statsPath = "/perfbench/stats"

// workerStats is what a worker reports after the scatter.
type workerStats struct {
	Submits     int        `json:"submits"`
	Polls       int        `json:"polls"`
	UsefulPolls int        `json:"useful_polls"`
	Errors      int        `json:"errors"`
	BytesIn     int64      `json:"bytes_in"`
	BytesOut    int64      `json:"bytes_out"`
	HandlerS    float64    `json:"handler_s"`
	Rejected    int64      `json:"rejected"`
	Jobs        []jobStats `json:"jobs"`
}

// jobStats is one region job: queue timestamps (the ones JobView carries),
// the time from finishing to the first poll that served the terminal state,
// and the figures of its ReportPayload.
type jobStats struct {
	WaitS        float64 `json:"wait_s"`
	RunS         float64 `json:"run_s"`
	PollLagS     float64 `json:"poll_lag_s"`
	WallS        float64 `json:"wall_s"`
	SolveCPUS    float64 `json:"solve_cpu_s"`
	EvaluateS    float64 `json:"evaluate_s"`
	PlaceS       float64 `json:"place_s"`
	PreprocessS  float64 `json:"preprocess_s"`
	LongestTileS float64 `json:"longest_tile_s"`
	MemoHits     int     `json:"memo_hits"`
	MemoMisses   int     `json:"memo_misses"`
}

// runWorker serves one worker until its standard input closes, printing
// its listen address first.
func runWorker() error {
	srv, err := server.New(server.Config{Queue: jobqueue.Config{Capacity: 64, Workers: 1}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st := newWireStats()
	mux := http.NewServeMux()
	mux.Handle("/", st.wrap(srv))
	mux.HandleFunc("GET "+statsPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(st.report(srv.Queue()))
	})
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	hs.Close()
	<-served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// worker is a started worker process.
type worker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func startWorker() (*worker, error) {
	cmd := exec.Command(os.Args[0], "-worker")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		w.stop()
		return nil, fmt.Errorf("worker address: %w", err)
	}
	w.addr = strings.TrimSpace(line)
	return w, nil
}

func (w *worker) stats() (*workerStats, error) {
	resp, err := http.Get("http://" + w.addr + statsPath)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st workerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("worker stats: %w", err)
	}
	return &st, nil
}

// stop closes the worker's standard input, which ends it, and returns its
// rusage.
func (w *worker) stop() (*syscall.Rusage, error) {
	w.stdin.Close()
	if err := w.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("worker %s: %w", w.addr, err)
	}
	ru, ok := w.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("worker rusage unavailable")
	}
	return ru, nil
}

// wireStats counts what crosses a worker's HTTP boundary: submits, polls
// (and how many served a job state different from the last one served),
// bytes each way, time inside the handler, error responses, and when each
// job's terminal state was first served.
type wireStats struct {
	mu          sync.Mutex
	submits     int
	polls       int
	usefulPolls int
	errors      int
	bytesIn     int64
	bytesOut    int64
	handler     time.Duration
	state       map[string]string    // job ID -> last state served
	terminalAt  map[string]time.Time // job ID -> first terminal poll response
}

func newWireStats() *wireStats {
	return &wireStats{state: map[string]string{}, terminalAt: map[string]time.Time{}}
}

func (st *wireStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		cr := &countingReader{r: r.Body}
		r.Body = cr
		h.ServeHTTP(cw, r)
		end := time.Now()
		submit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
		poll := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/")
		id, state := jobHead(cw.head)

		st.mu.Lock()
		defer st.mu.Unlock()
		st.handler += end.Sub(start)
		st.bytesIn += cr.n
		st.bytesOut += cw.n
		if cw.status >= 400 {
			st.errors++
		}
		switch {
		case submit:
			st.submits++
		case poll:
			st.polls++
			if state != st.state[id] {
				st.usefulPolls++
			}
			if terminalState(state) && !terminalState(st.state[id]) {
				st.terminalAt[id] = end
			}
		}
		if id != "" && state != "" {
			st.state[id] = state
		}
	})
}

func terminalState(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

// report snapshots the counters and every job the queue holds.
func (st *wireStats) report(q *jobqueue.Queue) *workerStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := &workerStats{
		Submits: st.submits, Polls: st.polls, UsefulPolls: st.usefulPolls, Errors: st.errors,
		BytesIn: st.bytesIn, BytesOut: st.bytesOut, HandlerS: st.handler.Seconds(),
		Rejected: q.Stats().Rejected,
	}
	for _, snap := range q.List() {
		j := jobStats{
			WaitS: snap.Started.Sub(snap.Submitted).Seconds(),
			RunS:  snap.Finished.Sub(snap.Started).Seconds(),
		}
		if seen, ok := st.terminalAt[snap.ID]; ok {
			j.PollLagS = seen.Sub(snap.Finished).Seconds()
		}
		if rp, ok := snap.Result.(*server.ReportPayload); ok {
			j.WallS = rp.WallMS / 1e3
			j.SolveCPUS = rp.SolveCPUMS / 1e3
			j.EvaluateS = rp.PhasesMS.Evaluate / 1e3
			j.PlaceS = rp.PhasesMS.Place / 1e3
			j.PreprocessS = rp.PhasesMS.Preprocess / 1e3
			j.MemoHits, j.MemoMisses = rp.MemoHits, rp.MemoMisses
			if rp.Region != nil && len(rp.Region.SlowTiles) > 0 {
				j.LongestTileS = rp.Region.SlowTiles[0].MS / 1e3
			}
		}
		out.Jobs = append(out.Jobs, j)
	}
	return out
}

// jobHead extracts the id and state of a JobView response from its first
// bytes (the encoder writes both fields first).
func jobHead(head []byte) (id, state string) {
	field := func(name string) string {
		k := []byte(`"` + name + `":"`)
		i := bytes.Index(head, k)
		if i < 0 {
			return ""
		}
		rest := head[i+len(k):]
		j := bytes.IndexByte(rest, '"')
		if j < 0 {
			return ""
		}
		return string(rest[:j])
	}
	return field("id"), field("state")
}

// headBytes is how much of each response the wrapper keeps for jobHead.
const headBytes = 160

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
	head   []byte
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if room := headBytes - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.n += int64(n)
	return n, err
}

func (r *countingReader) Close() error { return r.r.Close() }
