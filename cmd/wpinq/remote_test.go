package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/service"
)

// startTestServer runs a wpinqd service in-process and returns its URL.
func startTestServer(t *testing.T) string {
	t.Helper()
	svc, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// captureStdout redirects os.Stdout around fn and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		outc <- data
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	data := <-outc
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(data)
}

func TestRemoteWorkflow(t *testing.T) {
	url := startTestServer(t)
	dir := t.TempDir()
	edges := writeTestGraph(t, dir)
	out := filepath.Join(dir, "synth.txt")

	// Workloads named explicitly: tbi (4 eps) + wedges (2 eps) on top of
	// the 3-eps seed bundle, budget sized exactly.
	measurementID := strings.TrimSpace(captureStdout(t, func() error {
		return runRemote([]string{"measure",
			"-server", url, "-in", edges, "-workloads", "tbi,wedges",
			"-budget", "9", "-eps", "1", "-seed", "11"})
	}))
	if !strings.HasPrefix(measurementID, "m") {
		t.Fatalf("remote measure printed %q, want a measurement ID", measurementID)
	}

	if err := runRemote([]string{"synthesize",
		"-server", url, "-measurement", measurementID, "-workloads", "tbi,wedges",
		"-steps", "300", "-seed", "12", "-poll", "10ms", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Error("remote synthesize produced an empty graph")
	}

	status := captureStdout(t, func() error {
		return runRemote([]string{"status", "-server", url})
	})
	for _, want := range []string{"datasets (1)", measurementID, "jobs (1)", "[done]"} {
		if !strings.Contains(status, want) {
			t.Errorf("remote status output missing %q:\n%s", want, status)
		}
	}
	if got := strings.Count(status, "\n  operator "); got != 3 {
		t.Errorf("remote status lists %d operators, want the three busiest:\n%s", got, status)
	}
}

func TestRemoteValidation(t *testing.T) {
	if err := runRemote(nil); err == nil {
		t.Error("missing verb accepted")
	}
	if err := runRemote([]string{"bogus"}); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := runRemote([]string{"measure"}); err == nil {
		t.Error("measure without -in accepted")
	}
	if err := runRemote([]string{"measure", "-in", "x.txt"}); err == nil {
		t.Error("measure without -budget accepted")
	}
	if err := runRemote([]string{"synthesize"}); err == nil {
		t.Error("synthesize without -measurement accepted")
	}
	// Every daemon job fits at one shard; the client has no knob for it.
	err := runRemote([]string{"synthesize", "-shards", "1", "-measurement", "m1"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("synthesize -shards: got %v, want an undefined-flag error", err)
	}
}
