package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/service"
)

// server is an in-process wpinqd: service.New behind an http.Server on
// a loopback port, the same wiring as cmd/wpinqd.
type server struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	dir    string
	served chan error
}

// bootServer starts a durable service with its store under a fresh
// directory inside parent.
func bootServer(parent string) (*server, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{Dir: dir, Workers: analysts})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener and the job workers, waits for both, and
// removes the store directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// uploadBodies generates n distinct protected graphs as upload bodies.
func uploadBodies(s spec, seed int64, n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		g, err := generate(s, seed, i)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// sessionBudget is the dataset budget of a session and exactly the cost
// of its one measurement, so the second measure must be refused.
func sessionBudget(s spec) float64 { return s.config().MeasureCost() }

// sessionTimes is what one analyst session took, by phase.
type sessionTimes struct {
	measure time.Duration // upload + measure: the curator half
	job     time.Duration // submit -> result bytes: the analyst half
	wall    time.Duration // the analyst's whole turn, client-side checks included
}

// pollEvery is the analyst's job-status polling interval.
const pollEvery = 2 * time.Millisecond

// session is one analyst round trip: upload a protected graph with a
// budget that covers exactly one measurement, measure, try to measure
// again (must be refused with 402), fit as a durable job, poll, download
// the result, and verify ledger and output. audit adds the client-side
// provenance audit. Spans go to tr when it is not nil.
func session(c *service.Client, s spec, body []byte, id string, seed int64, audit bool, tr *tracer) (sessionTimes, error) {
	var st sessionTimes
	root := tr.newID()
	begin := time.Now()
	defer func() { tr.recordAs(root, id, 0, "service", "service.session", begin, time.Now()) }()
	step := func(name string, t0 time.Time) { tr.record(id, root, "service", name, t0, time.Now()) }

	budget := sessionBudget(s)
	t0 := time.Now()
	ds, err := c.Upload(id, budget, bytes.NewReader(body))
	step("service.upload", t0)
	if err != nil {
		return st, fmt.Errorf("upload: %w", err)
	}
	req := service.MeasureRequest{Eps: eps, Workloads: s.workloads, Bucket: s.bucket, Seed: seed}
	t0 = time.Now()
	mr, err := c.Measure(ds.ID, req)
	step("service.measure_http", t0)
	if err != nil {
		return st, fmt.Errorf("measure: %w", err)
	}
	st.measure = time.Since(begin)
	if mr.Cost != budget {
		return st, fmt.Errorf("measure cost %v, want %v", mr.Cost, budget)
	}

	t0 = time.Now()
	_, err = c.Measure(ds.ID, req)
	step("service.refused_402", t0)
	var api *service.APIError
	if !errors.As(err, &api) || api.Status != http.StatusPaymentRequired || api.Code != service.CodeInsufficientBudget {
		return st, fmt.Errorf("overdraw was not refused with 402 insufficient_budget: %v", err)
	}

	jobStart := time.Now()
	js, err := c.SubmitJob(service.JobRequest{
		Measurement:     mr.Measurement.ID,
		Steps:           s.steps,
		Pow:             s.pow,
		Seed:            seed,
		CheckpointEvery: s.checkpointEvery,
	})
	step("service.submit", jobStart)
	if err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	running := false
	for !js.Terminal() {
		time.Sleep(pollEvery)
		t0 = time.Now()
		js, err = c.Job(js.ID)
		step("service.poll", t0)
		if err != nil {
			return st, fmt.Errorf("poll: %w", err)
		}
		if !running && js.State != service.JobQueued {
			running = true
			tr.record(id, root, "service", "service.queue_wait", jobStart, time.Now())
		}
	}
	if js.State != service.JobDone {
		return st, fmt.Errorf("job %s ended %s: %s", js.ID, js.State, js.Error)
	}
	t0 = time.Now()
	res, err := c.JobResult(js.ID)
	step("service.result", t0)
	if err != nil {
		return st, fmt.Errorf("result: %w", err)
	}
	st.job = time.Since(jobStart)

	if res.NumEdges() != js.SeedEdges || js.Step != s.steps {
		return st, fmt.Errorf("result has %d edges after %d steps, want %d after %d", res.NumEdges(), js.Step, js.SeedEdges, s.steps)
	}
	info, err := c.Dataset(ds.ID)
	if err != nil {
		return st, fmt.Errorf("ledger: %w", err)
	}
	if info.Ledger.Spent != budget || math.Abs(info.Ledger.Remaining) > 1e-12 {
		return st, fmt.Errorf("ledger spent %v remaining %v, want %v and 0", info.Ledger.Spent, info.Ledger.Remaining, budget)
	}
	if audit {
		t0 = time.Now()
		rep, err := c.AuditDataset(ds.ID)
		step("service.audit", t0)
		if err != nil {
			return st, fmt.Errorf("audit: %w", err)
		}
		if !rep.OK {
			return st, fmt.Errorf("audit of %s: %v", ds.ID, rep.Problems)
		}
	}
	return st, nil
}

// sessionLog collects the sessions of one window.
type sessionLog struct {
	mu       sync.Mutex
	times    []sessionTimes
	failures []error
}

// drive runs the closed loop: each of the analysts starts its next
// session only when its previous one completed, until window elapsed.
// Session k uploads bodies[k mod len] under its own measurement seed.
func drive(srv *server, s spec, bodies [][]byte, seed int64, window time.Duration, tr *tracer) (*sessionLog, time.Duration) {
	log := &sessionLog{}
	var next int
	var wg sync.WaitGroup
	start := time.Now()
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := service.NewClient(srv.url)
			for first := true; first || time.Since(start) < window; first = false {
				log.mu.Lock()
				k := next
				next++
				log.mu.Unlock()
				id := fmt.Sprintf("session-%d", k)
				t0 := time.Now()
				st, err := session(c, s, bodies[k%len(bodies)], id, subSeed(seed, k, seedSession), k%10 == 0, tr)
				st.wall = time.Since(t0)
				log.mu.Lock()
				if err != nil {
					log.failures = append(log.failures, fmt.Errorf("%s: %w", id, err))
				} else {
					log.times = append(log.times, st)
				}
				log.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return log, time.Since(start)
}

// settle waits for finished jobs to retire their checkpoints (a worker
// deletes the checkpoint just after it publishes the done state).
func settle(srv *server) []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := srv.svc.Store().Checkpoints()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupsPerRun is how often the serve set-up (boot + inputs) repeats.
// One takes 35 ms, which a single scheduling hiccup moves by a third
// (two runs of one commit read 34 and 45 ms off three set-ups); nine
// cost a third of a second and give the quartile something to stand on.
const setupsPerRun = 9

// bodiesPerRun is the number of distinct protected graphs the sessions
// of one run cycle through.
const bodiesPerRun = 64

// setupServe boots the service and builds the session inputs.
func setupServe(s spec, seed int64, outDir string) (*server, [][]byte, time.Duration, error) {
	t0 := time.Now()
	srv, err := bootServer(outDir)
	if err != nil {
		return nil, nil, 0, err
	}
	bodies, err := uploadBodies(s, seed, bodiesPerRun)
	if err != nil {
		srv.close()
		return nil, nil, 0, err
	}
	return srv, bodies, time.Since(t0), nil
}

// runServe is the untraced serve-durable run.
func runServe(s spec, seed int64, window time.Duration, outDir string) outcome {
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	var setup sample
	var srv *server
	var bodies [][]byte
	for i := 0; i < setupsPerRun; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				out.problem("closing set-up server: %v", err)
			}
		}
		var took time.Duration
		var err error
		srv, bodies, took, err = setupServe(s, seed, outDir)
		if err != nil {
			out.Attempted, out.Failed = 1, 1
			out.problem("set-up: %v", err)
			return out
		}
		setup = append(setup, took.Seconds())
	}
	log, wall := drive(srv, s, bodies, seed, window, nil)
	if left := settle(srv); len(left) > 0 {
		out.problem("checkpoints left after every job finished: %v", left)
	}
	if err := srv.close(); err != nil {
		out.problem("closing server: %v", err)
	}

	out.Attempted = len(log.times) + len(log.failures)
	for _, err := range log.failures {
		out.fail("%v", err)
	}
	var done rounds
	var rate sample
	for _, st := range log.times {
		done.add(st.measure, st.job)
		// A closed loop completes analysts sessions per session time.
		rate = append(rate, float64(analysts*s.steps)/st.wall.Seconds())
	}
	out.Metrics["setup_s"] = fastMetric("s", setup, false)
	steps := fastMetric("1/s", rate, true)
	steps.Note += fmt.Sprintf(", whole window %.6g", float64(len(log.times)*s.steps)/wall.Seconds())
	out.Metrics["steps_per_s"] = steps
	done.report(&out)
	if mb, err := peakRSSMB(); err != nil {
		out.problem("peak RSS: %v", err)
	} else {
		// One server process holds every session: the process-wide peak.
		out.Metrics["peak_rss_mb"] = scalar(mb, "MB")
	}
	return out
}
