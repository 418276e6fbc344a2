package server_test

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// TestJobWALReplaysCancelledJob: a keyed job cancelled by a drain whose
// deadline has passed is not marked done, so a server restarted on the same
// data dir resubmits it under its key and runs it to completion — and a
// third start finds nothing left to replay.
func TestJobWALReplaysCancelledJob(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	block := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		return func(ctx context.Context, setPhase func(string)) (any, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil
	}
	s1, ts1 := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}, DataDir: dir, TaskFactory: block})
	code, data := doJSON(t, http.MethodPost, ts1.URL+"/v1/jobs", server.SubmitRequest{Method: "x", Key: "k1"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	<-started
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Shutdown(expired); err == nil {
		t.Fatal("drain with an expired context reported success")
	}
	if jobs := s1.Queue().List(); len(jobs) != 1 || jobs[0].State != jobqueue.Cancelled {
		t.Fatalf("after expired drain: %+v, want one cancelled job", jobs)
	}

	quick := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		return func(ctx context.Context, setPhase func(string)) (any, error) { return "ran", nil }, nil
	}
	s2, ts2 := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}, DataDir: dir, TaskFactory: quick})
	jobs := s2.Queue().List()
	if len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("restart replayed %+v, want the one keyed job", jobs)
	}
	if v := pollJob(t, ts2.URL, jobs[0].ID, func(v server.JobView) bool { return v.State != "pending" && v.State != "running" }); v.State != "done" {
		t.Fatalf("replayed job %s: %s", v.State, v.Error)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s3, _ := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}, DataDir: dir, TaskFactory: quick})
	if n := len(s3.Queue().List()); n != 0 {
		t.Fatalf("finished job replayed again: %d jobs", n)
	}
}

// TestJobWALSkipsUndecodableRecord: an accept record whose payload no longer
// decodes must not stop the server from starting; it is marked done so it is
// not replayed again.
func TestJobWALSkipsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	if err := os.WriteFile(path, []byte(`{"type":"accept","key":"k1","payload":"not-an-object"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}, DataDir: dir})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if n := len(s.Queue().List()); n != 0 {
		t.Fatalf("undecodable record replayed as %d jobs", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wal, recs, err := jobqueue.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if open := jobqueue.WALUnfinished(recs); len(open) != 0 {
		t.Fatalf("undecodable record still unfinished: %+v", open)
	}
}
