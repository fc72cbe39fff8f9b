package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/service"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

// rawProposals is how many proposals of a traced walk keep their raw
// spans; later ones only feed the aggregates.
const rawProposals = 1000

// recomputeEvery is synth.Config's default drift-squash cadence; the
// traced loop must use the value synth.Synthesize would.
const recomputeEvery = 1 << 15

// runTraced is the traced run: every layer is timed from here, around
// its public calls, on the workload's own input. It returns the
// per-layer metrics and the tracer holding the spans.
func runTraced(s spec, seed int64, window time.Duration, outDir string) (outcome, *tracer) {
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	tr := newTracer()
	in, err := prepare(s, seed, 0, tr)
	out.Attempted++
	if err != nil {
		out.fail("prepare: %v", err)
		return out, tr
	}
	out.Metrics["graph.generate_s"] = scalar(in.gen.Seconds(), "s")
	out.Metrics["core.measure_s"] = scalar(in.measure.Seconds(), "s")
	out.Metrics["synth.seed_s"] = scalar(in.seed.Seconds(), "s")

	body, err := probeGraphIO(tr, in.g, &out)
	if err != nil {
		out.fail("graph io: %v", err)
		return out, tr
	}
	if err := probeMeasureFits(tr, s, in, seed, &out); err != nil {
		out.fail("measure fits: %v", err)
	}
	saved, err := probeSerialize(tr, in.m, seed, &out)
	if err != nil {
		out.fail("serialize: %v", err)
		return out, tr
	}
	for _, ex := range executors {
		out.Attempted++
		if err := probeExecutor(tr, s, in, saved, ex.name, ex.shards, s.traceSteps, seed, &out); err != nil {
			out.fail("%s: %v", ex.name, err)
		}
	}
	out.Attempted++
	ckpt, err := probeCheckpoints(tr, s, in, seed, &out)
	if err != nil {
		out.fail("checkpoints: %v", err)
	}
	if err := probeService(tr, s, in, body, ckpt, seed, window, outDir, &out); err != nil {
		out.Attempted++
		out.fail("service: %v", err)
	}
	return out, tr
}

// probeGraphIO times the edge-list writer and parser on the protected
// graph and returns the bytes (the upload body of a session).
func probeGraphIO(tr *tracer, g *graph.Graph, out *outcome) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := graph.WriteEdgeList(&buf, g)
	out.Metrics["graph.write_ms"] = scalar(millis(tr.record("probe", 0, "graph", "graph.write", t0, time.Now())), "ms")
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	back, err := graph.ReadEdgeList(bytes.NewReader(buf.Bytes()))
	out.Metrics["graph.parse_ms"] = scalar(millis(tr.record("probe", 0, "graph", "graph.parse", t0, time.Now())), "ms")
	if err != nil {
		return nil, err
	}
	if back.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("edge list round trip: %d edges became %d", g.NumEdges(), back.NumEdges())
	}
	return buf.Bytes(), nil
}

// probeMeasureFits measures each fit workload on its own against a
// fresh budgeted collection: the share of core.measure_s that is the
// workloads' one-shot queries rather than the degree bundle.
func probeMeasureFits(tr *tracer, s spec, in fitInputs, seed int64, out *outcome) error {
	ws, err := workload.Resolve(s.workloads)
	if err != nil {
		return err
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	src := budget.NewSource("probe", s.config().MeasureCost())
	edges := core.FromDataset(graph.SymmetricEdges(in.g), src)
	rng := rand.New(rand.NewSource(subSeed(seed, 0, seedProbe)))
	var total time.Duration
	for _, w := range ws {
		t0 := time.Now()
		_, err := w.Measure(edges, s.bucket, eps, rng)
		total += tr.record("probe", 0, "core", "core.measure."+w.Name, t0, time.Now())
		if err != nil {
			return err
		}
	}
	out.Metrics["core.measure_fits_s"] = scalar(total.Seconds(), "s")
	released := len(in.m.DegSeq.Materialized()) + len(in.m.CCDF.Materialized()) + len(in.m.NodeCount.Materialized())
	for _, fit := range in.m.Fits {
		released += fit.Hist.Len()
	}
	out.Metrics["core.released_records"] = scalar(float64(released), "count")
	return nil
}

// probeSerialize times the measurement file format both ways and
// returns the saved bytes.
func probeSerialize(tr *tracer, m *synth.Measurements, seed int64, out *outcome) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := m.Save(&buf)
	out.Metrics["synth.save_ms"] = scalar(millis(tr.record("probe", 0, "synth", "synth.save", t0, time.Now())), "ms")
	if err != nil {
		return nil, err
	}
	out.Metrics["synth.save_bytes"] = scalar(float64(buf.Len()), "B")
	rng := rand.New(rand.NewSource(subSeed(seed, 1, seedProbe)))
	t0 = time.Now()
	back, err := synth.LoadMeasurements(bytes.NewReader(buf.Bytes()), rng)
	out.Metrics["synth.loadmeas_ms"] = scalar(millis(tr.record("probe", 0, "synth", "synth.loadmeas", t0, time.Now())), "ms")
	if err != nil {
		return nil, err
	}
	if back.TotalCost != m.TotalCost || len(back.Fits) != len(m.Fits) {
		return nil, fmt.Errorf("measurement round trip changed cost or fits")
	}
	return buf.Bytes(), nil
}

// walkEnd identifies where a walk ended, to compare two walks.
type walkEnd struct {
	edges                       [sha256.Size]byte
	score                       float64
	accepted, rejected, invalid int
}

func edgeHash(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	// WriteEdgeList only fails when the writer does; a hash never does.
	_ = graph.WriteEdgeList(h, g)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// scorer is the part of a plan's scorer the traced loop calls.
type scorer interface {
	Score() float64
	Recompute() float64
}

// tracedWalk is mcmc.Runner.Run with a span around every call it makes:
// Propose -> Speculate -> Score -> the same accept test on the same rng
// -> Commit or Abort. probeExecutor proves it walks the same path.
func tracedWalk(tr *tracer, ex string, st *mcmc.GraphState, sc scorer, pow float64, rng *rand.Rand, steps int) walkEnd {
	trace := "walk/" + ex
	var end walkEnd
	score := sc.Score()
	sinceRecompute := 0
	id := 0 // the current step's span; 0 once raw spans are no longer kept
	child := func(layer, name string, t0, t1 time.Time) {
		cid := 0
		if id != 0 {
			cid = tr.newID()
		}
		tr.recordAs(cid, trace, id, layer, name, t0, t1)
	}
	for i := 0; i < steps; i++ {
		id = 0
		if i < rawProposals {
			id = tr.newID()
		}
		t0 := time.Now()
		p, ok := st.Propose(rng)
		t1 := time.Now()
		child("mcmc", ex+".propose", t0, t1)
		if !ok {
			end.invalid++
			tr.recordAs(id, trace, 0, "mcmc", ex+".step", t0, t1)
			continue
		}
		st.Speculate(p)
		t2 := time.Now()
		child(ex, ex+".speculate", t1, t2)
		next := sc.Score()
		t3 := time.Now()
		child(ex, ex+".score", t2, t3)
		accept := next <= score
		if !accept {
			accept = rng.Float64() < math.Exp(-pow*(next-score))
		}
		t4 := time.Now()
		if accept {
			st.Commit()
			t5 := time.Now()
			child(ex, ex+".commit", t4, t5)
			score = next
			end.accepted++
			sinceRecompute++
			if sinceRecompute >= recomputeEvery {
				score = sc.Recompute()
				sinceRecompute = 0
			}
		} else {
			st.Abort(p)
			child(ex, ex+".abort", t4, time.Now())
			end.rejected++
		}
		tr.recordAs(id, trace, 0, "mcmc", ex+".step", t0, time.Now())
	}
	end.score = score
	end.edges = edgeHash(st.Graph())
	return end
}

// probeExecutor fills one executor's column of the per-executor table:
// plan attach, bulk load, live state, the traced walk's per-call times
// and an untraced mcmc.Runner.Run of the same seed, which gives the
// untraced step rate and proves the traced loop is the same program.
// Each of the two walks gets its own copy of the release, loaded under
// the same seed: a walk materializes lazy noise in the histograms it
// fits, which would change the next plan's starting domain.
func probeExecutor(tr *tracer, s spec, in fitInputs, saved []byte, ex string, shards, steps int, seed int64, out *outcome) error {
	reload := func() (*synth.Measurements, error) {
		return synth.LoadMeasurements(bytes.NewReader(saved), rand.New(rand.NewSource(subSeed(seed, 3, seedProbe))))
	}
	rel1, err := reload()
	if err != nil {
		return err
	}
	rel2, err := reload()
	if err != nil {
		return err
	}
	before := liveHeap()
	t0 := time.Now()
	plan, err := attachAll(rel1, shards)
	attach := tr.record("probe", 0, "workload", "workload.attach", t0, time.Now())
	if err != nil {
		return err
	}
	t0 = time.Now()
	state := mcmc.NewGraphState(in.seedG, plan.Input())
	load := tr.record("probe", 0, ex, ex+".load", t0, time.Now())
	after := liveHeap()
	out.Metrics[ex+".load_s"] = scalar(load.Seconds(), "s")
	out.Metrics[ex+".state_mb"] = scalar((float64(after)-float64(before))/(1<<20), "MB")

	walkSeed := subSeed(seed, 0, seedTracedWalk)
	pushes := plan.Fusion().Pushes()
	t0 = time.Now()
	traced := tracedWalk(tr, ex, state, plan.Scorer(), s.pow, rand.New(rand.NewSource(walkSeed)), steps)
	tracedWall := time.Since(t0)
	pushes = plan.Fusion().Pushes() - pushes

	var recompute sample
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		plan.Scorer().Recompute()
		recompute = append(recompute, millis(tr.record("probe", 0, ex, ex+".recompute", t0, time.Now())))
	}
	runtime.KeepAlive(state)

	// The same walk through the product's own loop, untraced.
	plan2, err := attachAll(rel2, shards)
	if err != nil {
		return err
	}
	state2 := mcmc.NewGraphState(in.seedG, plan2.Input())
	runner, err := mcmc.NewRunner(state2, plan2.Scorer(), mcmc.Config{Pow: s.pow, RecomputeEvery: recomputeEvery},
		rand.New(rand.NewSource(walkSeed)))
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	stats := runner.Run(steps)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	untraced := walkEnd{edges: edgeHash(state2.Graph()), score: stats.FinalScore,
		accepted: stats.Accepted, rejected: stats.Rejected, invalid: stats.Invalid}

	rate := float64(steps) / wall.Seconds()
	out.Metrics[ex+".steps_per_s"] = scalar(rate, "1/s")
	out.Metrics[ex+".recompute_ms"] = medianMetric("ms", recompute)
	// The step span's self time: its mean duration minus what its child
	// spans cover, per step.
	step := tr.sample(ex+".step", micros)
	propose := tr.sample(ex+".propose", micros)
	out.Metrics[ex+".step_us"] = medianMetric("us", step)
	self := step.mean() - propose.sum()/float64(steps)
	for _, call := range []string{"speculate", "score", "commit", "abort"} {
		smp := tr.sample(ex+"."+call, micros)
		out.Metrics[ex+"."+call+"_us"] = medianMetric("us", smp)
		self -= smp.sum() / float64(steps)
	}
	if ex == defaultExecutor {
		st := plan.Fusion().Stats()
		out.Metrics["workload.attach_ms"] = scalar(millis(attach), "ms")
		out.Metrics["workload.plan_fragments"] = scalar(float64(st.Fragments), "count")
		out.Metrics["workload.plan_shared"] = scalar(float64(st.Shared), "count")
		out.Metrics["workload.pushes_per_step"] = scalar(float64(pushes)/float64(steps), "count")
		out.Metrics["mcmc.propose_us"] = medianMetric("us", propose)
		out.Metrics["mcmc.loop_us"] = scalar(self, "us")
		out.Metrics["mcmc.accept_rate"] = scalar(float64(traced.accepted)/float64(steps), "ratio")
		out.Metrics["mcmc.invalid_rate"] = scalar(float64(traced.invalid)/float64(steps), "ratio")
		out.Metrics["mcmc.allocs_per_step"] = scalar(float64(m1.Mallocs-m0.Mallocs)/float64(steps), "count")
		out.Metrics["mcmc.bytes_per_step"] = scalar(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(steps), "B")
		tracedRate := float64(steps) / tracedWall.Seconds()
		out.Metrics["mcmc.trace_overhead_pct"] = scalar(100*(rate-tracedRate)/rate, "%")
	}

	// engine.processSeed makes multi-shard float state reproducible only
	// within a process, so engine.sN is held to the score, not the bits.
	if shards == 0 {
		if traced.accepted != untraced.accepted || !closeRel(traced.score, untraced.score, 1e-6) {
			return fmt.Errorf("traced walk diverged from Runner.Run: %+v vs %+v", traced, untraced)
		}
		return nil
	}
	if traced.edges != untraced.edges || math.Float64bits(traced.score) != math.Float64bits(untraced.score) {
		return fmt.Errorf("traced walk is not trace-identical to Runner.Run: %+v vs %+v", traced, untraced)
	}
	return nil
}

// probeCheckpoints runs the same fit through synth.Synthesize with and
// without checkpointing. The extra wall time per checkpoint, less the
// serialization it includes, is the re-anchor cost. It returns the last
// checkpoint, serialized.
func probeCheckpoints(tr *tracer, s spec, in fitInputs, seed int64, out *outcome) ([]byte, error) {
	var last []byte
	cfg := s.config()
	if cfg.Steps > 2000 {
		cfg.Steps = 2000
	}
	fitSeed := subSeed(seed, 2, seedProbe)
	t0 := time.Now()
	if _, err := synth.Synthesize(in.m, in.seedG, cfg, rand.New(rand.NewSource(fitSeed))); err != nil {
		return last, err
	}
	plain := tr.record("probe", 0, "synth", "synth.fit", t0, time.Now())

	cfg.CheckpointEvery = cfg.Steps / 4
	var save, bytesOut sample
	var saveErr error
	cfg.OnCheckpoint = func(ck *synth.Checkpoint) bool {
		var buf bytes.Buffer
		t0 := time.Now()
		err := ck.Save(&buf)
		save = append(save, millis(tr.record("probe", 0, "synth", "synth.ckpt_save", t0, time.Now())))
		if err != nil && saveErr == nil {
			saveErr = err
		}
		bytesOut = append(bytesOut, float64(buf.Len()))
		last = buf.Bytes()
		return true
	}
	t0 = time.Now()
	res, err := synth.Synthesize(in.m, in.seedG, cfg, rand.New(rand.NewSource(fitSeed)))
	durable := tr.record("probe", 0, "synth", "synth.fit_durable", t0, time.Now())
	if err != nil {
		return last, err
	}
	if saveErr != nil {
		return last, saveErr
	}
	if len(save) == 0 {
		return last, fmt.Errorf("durable fit of %d steps emitted no checkpoint", cfg.Steps)
	}
	if !sameDegrees(in.seedG, res.Synthetic) || res.Stats.Steps != cfg.Steps {
		return last, fmt.Errorf("durable fit broke the degree sequence or ran %d of %d steps", res.Stats.Steps, cfg.Steps)
	}
	var load sample
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		ck, err := synth.LoadCheckpoint(bytes.NewReader(last))
		load = append(load, millis(tr.record("probe", 0, "synth", "synth.ckpt_load", t0, time.Now())))
		if err != nil {
			return last, err
		}
		if ck.Steps != cfg.Steps {
			return last, fmt.Errorf("checkpoint round trip: steps %d, want %d", ck.Steps, cfg.Steps)
		}
	}
	out.Metrics["synth.ckpt_save_ms"] = medianMetric("ms", save)
	out.Metrics["synth.ckpt_bytes"] = medianMetric("B", bytesOut)
	out.Metrics["synth.ckpt_load_ms"] = medianMetric("ms", load)
	out.Metrics["synth.reanchor_ms"] = scalar(millis(durable-plain)/float64(len(save))-save.mean(), "ms")
	return last, nil
}

// probeService times the serving layers on this workload's input. The
// serve workload drives its traced window of concurrent sessions; the
// others send one session, so every workload reports the service's cost
// at its own input size.
func probeService(tr *tracer, s spec, in fitInputs, body, ckpt []byte, seed int64, window time.Duration, outDir string, out *outcome) error {
	srv, err := bootServer(outDir)
	if err != nil {
		return err
	}
	err = probeServer(tr, srv, s, in, body, ckpt, seed, window, out)
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	return err
}

// probeServer is probeService against a booted server.
func probeServer(tr *tracer, srv *server, s spec, in fitInputs, body, ckpt []byte, seed int64, window time.Duration, out *outcome) error {
	client := service.NewClient(srv.url)
	before, err := scrape(client)
	if err != nil {
		return err
	}

	var log *sessionLog
	bodies := [][]byte{body}
	repeats := 1
	if s.serve {
		repeats = 3
		if bodies, err = uploadBodies(s, seed, bodiesPerRun); err != nil {
			return err
		}
		log, _ = drive(srv, s, bodies, seed, window, tr)
	} else {
		// One session: a short durable job on the same input.
		sess := s
		if sess.steps > 2000 {
			sess.steps = 2000
		}
		sess.checkpointEvery = sess.steps / 4
		log = &sessionLog{}
		st, err := session(client, sess, body, "session-0", subSeed(seed, 0, seedSession), true, tr)
		if err != nil {
			log.failures = append(log.failures, err)
		} else {
			log.times = append(log.times, st)
		}
	}
	sessions := len(log.times) + len(log.failures)
	out.Attempted += sessions
	for _, err := range log.failures {
		out.fail("%v", err)
	}
	jobs := float64(len(log.times))

	// The same measurement without HTTP and JSON, and the store writes
	// on their own.
	var direct, ckptPut sample
	for i := 0; i < repeats; i++ {
		ds, err := srv.svc.Registry().Upload(fmt.Sprintf("direct-%d", i), sessionBudget(s), bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = srv.svc.Measure(ds.ID, service.MeasureRequest{Eps: eps, Workloads: s.workloads, Bucket: s.bucket, Seed: subSeed(seed, i, seedProbe)})
		direct = append(direct, millis(tr.record("probe", 0, "service", "service.measure_direct", t0, time.Now())))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = srv.svc.Store().PutCheckpoint("probe", ckpt)
		ckptPut = append(ckptPut, millis(tr.record("probe", 0, "service", "service.ckpt_put", t0, time.Now())))
		if err == nil {
			err = srv.svc.Store().DeleteCheckpoint("probe")
		}
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	_, err = srv.svc.Store().Put(in.m)
	out.Metrics["service.store_put_ms"] = scalar(millis(tr.record("probe", 0, "service", "service.store_put", t0, time.Now())), "ms")
	if err != nil {
		return err
	}

	after, err := scrape(client)
	if err != nil {
		return err
	}
	if left := settle(srv); len(left) > 0 {
		out.problem("checkpoints left after every job finished: %v", left)
	}

	for _, call := range []string{"upload", "measure_http", "submit", "queue_wait", "poll", "result", "audit"} {
		out.Metrics["service."+call+"_ms"] = medianMetric("ms", tr.sample("service."+call, millis))
	}
	out.Metrics["service.measure_direct_ms"] = medianMetric("ms", direct)
	out.Metrics["service.ckpt_put_ms"] = medianMetric("ms", ckptPut)
	polls := float64(len(tr.sample("service.poll", millis)))
	out.Metrics["service.polls_per_job"] = scalar(polls/math.Max(jobs, 1), "count")
	out.Metrics["service.checkpoints_per_job"] = scalar((after.checkpoints-before.checkpoints)/math.Max(jobs, 1), "count")
	refused := after.refused - before.refused
	out.Metrics["service.refused_402"] = scalar(refused, "count")
	out.Metrics["service.http_errors"] = scalar(after.errors-before.errors, "count")
	if refused != float64(sessions) {
		// Every session overdraws exactly once; nothing else may be refused.
		out.problem("server counted %v refusals for %d sessions", refused, sessions)
	}
	return nil
}

// counters are the server-side counts read off the /metrics page.
type counters struct {
	checkpoints float64 // durable-job checkpoints written
	refused     float64 // responses with status 402
	errors      float64 // responses with any other status >= 400
}

// scrape reads the counters this benchmark reports from the server's
// own metrics page, so they are counted where the work happens.
func scrape(c *service.Client) (counters, error) {
	var out counters
	page, err := c.Metrics()
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(page), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		switch {
		case strings.HasPrefix(series, "wpinq_job_checkpoints_total{") && strings.Contains(series, `outcome="ok"`):
			out.checkpoints += v
		case strings.HasPrefix(series, "wpinq_http_requests_total{"):
			j := strings.Index(series, `status="`)
			if j < 0 {
				continue
			}
			status, _ := strconv.Atoi(strings.TrimSuffix(series[j+len(`status="`):][:3], `"`))
			switch {
			case status == 402:
				out.refused += v
			case status >= 400:
				out.errors += v
			}
		}
	}
	return out, nil
}
