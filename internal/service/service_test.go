package service

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/graph"
	"wpinq/internal/obs"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(n, 3, 0.5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func edgeListBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// tbiCost is the total cost of one Eps=1 TbI measurement bundle:
// 3 eps seed measurements + 4 eps TbI.
const tbiCost = 7.0

func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 60)
	m, err := synth.Measure(g, synth.Config{Eps: 1, Workloads: []string{"tbi"}}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := st1.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	again, err := st1.Put(m)
	if err != nil || again.ID != info.ID {
		t.Fatalf("re-Put not idempotent: %v %v vs %v", err, again.ID, info.ID)
	}

	// A fresh store over the same directory sees the same release,
	// byte-for-byte, under the same content-addressed ID.
	st2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := st2.List()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("restarted store lists %+v, want 1 entry %s", list, info.ID)
	}
	b1, err1 := st1.Bytes(info.ID)
	b2, err2 := st2.Bytes(info.ID)
	if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("stored bytes diverged across restart (%v, %v)", err1, err2)
	}
	loaded, err := st2.Load(info.ID, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, hasTbI := loaded.Fits["tbi"]; loaded.Eps != 1 || !hasTbI {
		t.Fatalf("loaded measurement lost fields: %+v", loaded)
	}
	if _, err := st2.Bytes("mdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: got %v, want ErrNotFound", err)
	}
}

// TestMeasurementBytesSurviveAFit pins that the release is fixed at
// Measure: neither Phase 1 (which reads the degree histograms far past
// their released records) nor Phase 2 (whose proposals give weight to
// records the fit histograms never contained) writes into it,
// so it serializes to the same bytes — and the store addresses it by the
// same content id — before and after.
func TestMeasurementBytesSurviveAFit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := synth.Config{Eps: 1, Workloads: []string{"jdd", "tbd"}, Bucket: 2, Pow: 1e4, Steps: 600}
	m, err := synth.Measure(testGraph(t, 80), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() ([]byte, string) {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		info, err := store.Put(m)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), info.ID
	}
	released, id := snapshot()
	stages := []struct {
		name string
		run  func() error
	}{
		{"SeedGraph", func() error { _, err := synth.SeedGraph(m, rng); return err }},
		{"Synthesize", func() error {
			seed, err := synth.SeedGraph(m, rng)
			if err != nil {
				return err
			}
			res, err := synth.Synthesize(m, seed, cfg, rng)
			if err == nil && res.Stats.Accepted == 0 {
				err = errors.New("the fit accepted nothing: it exercised no sink")
			}
			return err
		}},
	}
	for _, stage := range stages {
		if err := stage.run(); err != nil {
			t.Fatalf("%s: %v", stage.name, err)
		}
		if got, gotID := snapshot(); !bytes.Equal(got, released) || gotID != id {
			t.Errorf("after %s the measurement saves %d bytes as %s, released %d bytes as %s",
				stage.name, len(got), gotID, len(released), id)
		}
	}
	if n := len(store.List()); n != 1 {
		t.Errorf("the store holds %d releases of one measurement", n)
	}
}

func TestMeasureDiscardsGraphAndKeepsLedger(t *testing.T) {
	svc := newTestService(t, Options{})
	g := testGraph(t, 60)
	// Budget for two bundles, but the default workflow discards the
	// graph after the first: the second request must fail on discard,
	// not overdraw, and the ledger must still show the first debit.
	info, err := svc.Registry().Upload("grqc", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Discarded {
		t.Error("graph not discarded after default measure")
	}
	if res.Cost != tbiCost {
		t.Errorf("cost = %g, want %g", res.Cost, tbiCost)
	}
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 6}); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("measure after discard: got %v, want ErrDiscarded", err)
	}
	after, err := svc.Registry().Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Discarded || after.Ledger.Spent != tbiCost {
		t.Errorf("ledger after discard: %+v", after)
	}
	if len(after.Measurements) != 1 || after.Measurements[0] != res.Measurement.ID {
		t.Errorf("measurement provenance lost: %+v", after.Measurements)
	}
}

func TestMeasureConcurrentOverdraw(t *testing.T) {
	svc := newTestService(t, Options{})
	g := testGraph(t, 60)
	// Exactly two bundles are affordable; ten concurrent requests race
	// for them with Keep so the graph survives for every attempt.
	info, err := svc.Registry().Upload("race", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 10
	var wg sync.WaitGroup
	errs := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Measure(info.ID, MeasureRequest{
				Eps: 1, Workloads: []string{"tbi"}, Keep: true, Seed: int64(100 + i),
			})
		}(i)
	}
	// Listings race the measurements and a concurrent upload (pinned
	// under -race: List must not read registry/job maps unlocked).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			svc.Registry().List()
			svc.Jobs().List()
			svc.Store().List()
		}
		if _, err := svc.Registry().Upload("other", 1, bytes.NewReader(edgeListBytes(t, g))); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	var ok int
	for _, err := range errs {
		if err == nil {
			ok++
			continue
		}
		var ib *budget.InsufficientBudgetError
		if !errors.As(err, &ib) {
			t.Fatalf("unexpected failure mode: %v", err)
		}
	}
	if ok != 2 {
		t.Fatalf("%d measurements succeeded, want exactly 2", ok)
	}
	after, _ := svc.Registry().Info(info.ID)
	if after.Ledger.Spent != 2*tbiCost {
		t.Errorf("spent = %g, want %g", after.Ledger.Spent, 2*tbiCost)
	}
	if after.Discarded {
		t.Error("Keep measurement discarded the graph")
	}
}

func TestJobLifecycleAndCancellation(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("jobs", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.SubmitJob(JobRequest{Measurement: "nope", Steps: 10}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job on unknown measurement: got %v, want ErrNotFound", err)
	}

	// A long-running job on the single worker: observe progress, then
	// cancel; a queued job behind it cancels without ever running.
	long, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Steps: 50_000_000, ProgressEvery: 100, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Steps: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(2 * time.Minute)
	for {
		st, err := svc.Jobs().Get(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Step > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never reported progress")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if _, err := svc.Jobs().Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	jLong, _ := svc.jobs.get(long.ID)
	<-jLong.Done()
	st := jLong.Status()
	if st.State != JobCancelled {
		t.Fatalf("long job state = %s, want cancelled", st.State)
	}
	if st.Step == 0 || st.Step >= st.Steps {
		t.Errorf("cancelled mid-run, step = %d of %d", st.Step, st.Steps)
	}
	// Cancellation keeps the partial synthetic graph downloadable.
	partial, _, err := svc.Jobs().Result(long.ID)
	if err != nil || partial.NumEdges() == 0 {
		t.Fatalf("partial result: %v", err)
	}
	if _, err := svc.Jobs().Cancel(long.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("double cancel: got %v, want ErrJobFinished", err)
	}

	jq, _ := svc.jobs.get(queued.ID)
	<-jq.Done()
	if st := jq.Status(); st.State != JobCancelled || st.Step != 0 {
		t.Errorf("queued job = %+v, want cancelled before running", st)
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct {
		opts Options
		want int
	}{
		{Options{Workers: 3}, 3},
		{Options{}, runtime.GOMAXPROCS(0)}, // one-shard jobs: one worker per CPU
	}
	for _, c := range cases {
		if got := workerCount(c.opts); got != c.want {
			t.Errorf("workerCount(%+v) = %d, want %d", c.opts, got, c.want)
		}
	}
}

func TestMeasureEmptyWorkloadsChargesNothing(t *testing.T) {
	// A measure request naming no fit workloads must be rejected before
	// the ledger is touched: the deeper check inside synth.Measure only
	// fires after the debit, which deliberately does not refund.
	svc := newTestService(t, Options{})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("empty", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1}); err == nil {
		t.Fatal("measure request with no workloads accepted")
	}
	after, err := svc.Registry().Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ledger.Spent != 0 {
		t.Errorf("empty-workload request spent %g of the budget", after.Ledger.Spent)
	}
	if after.Discarded {
		t.Error("empty-workload request discarded the graph")
	}
	// The budget remains fully usable.
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}}); err != nil {
		t.Fatalf("valid measurement after rejected request: %v", err)
	}
}

func TestSubmitRejectsUnmeasuredWorkload(t *testing.T) {
	// Requesting a fit against a workload the release does not contain
	// must fail at submission, not asynchronously in a worker.
	svc := newTestService(t, Options{})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("subset", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"tbd"}, Steps: 10,
	}); err == nil || !strings.Contains(err.Error(), "does not contain") {
		t.Fatalf("job against unmeasured tbd: got %v, want submission-time rejection", err)
	}
	if _, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"no-such-workload"}, Steps: 10,
	}); err == nil {
		t.Fatal("job naming an unregistered workload accepted")
	}
	// The measured subset is accepted.
	st, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"tbi"}, Steps: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Get(st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureRanksForeignIDsPerDataset pins that node ids outside
// [0, 2^21) cost a daemon nothing that outlives a measurement: two
// uploads, each a ring over 40 000 such ids (negative in one, past 2^21
// in the other), both measure in one Service, and since a release is
// blind to ids, both release the bytes of the same ring over 0..n-1.
func TestMeasureRanksForeignIDsPerDataset(t *testing.T) {
	const n = 40_000
	ring := func(id func(i int) graph.Node) *graph.Graph {
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddEdge(id(i), id((i+1)%n))
		}
		return g
	}
	svc := newTestService(t, Options{})
	req := MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5}
	var ids []string
	for _, g := range []*graph.Graph{
		ring(func(i int) graph.Node { return graph.Node(-1 - i) }),
		ring(func(i int) graph.Node { return graph.Node(3_000_000 + 7*i) }),
		ring(func(i int) graph.Node { return graph.Node(i) }),
	} {
		ds, err := svc.Registry().Upload("ring", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Measure(ds.ID, req)
		if err != nil {
			t.Fatalf("measure of dataset %s: %v", ds.ID, err)
		}
		ids = append(ids, res.Measurement.ID)
	}
	if ids[0] != ids[2] || ids[1] != ids[2] {
		t.Errorf("relabelled rings released %v, want one release", ids)
	}
}

// TestMeasurePanicLeavesDatasetUsable pins the deferred unlock in
// Service.Measure: a workload whose description panics while the dataset
// is locked — after the charge, as a failing query would — must not
// wedge the dataset for the life of the daemon (net/http recovers the
// handler, nothing recovers a held mutex). The debit stands, as for any
// measurement that fails after it; what must not happen is a lock left
// held, a budget gauge that no longer matches the ledger, a torn or
// phantom record in the persisted provenance chain — or a charge the
// chain does not account for: the attempt leaves a measure-failed record
// carrying its cost and a failure class (not the panic's text), and the
// audit replays clean.
func TestMeasurePanicLeavesDatasetUsable(t *testing.T) {
	const poisoned = 13
	// The registry is process-wide: a second run in one process
	// (-count=2) finds the workload the first registered.
	if _, err := workload.Get("tbi-panics-at-13"); err != nil {
		workload.MustRegister(workload.Define(workload.Workload{
			Name:        "tbi-panics-at-13",
			Description: "test only: TbI whose description panics at bucket 13",
			Bucketed:    true,
		}, workload.Builders[queries.Unit]{Expr: func(bucket int) queries.Expr[queries.Unit] {
			if bucket == poisoned {
				panic("description failed under the dataset lock")
			}
			return queries.TbI()
		}}))
	}

	dir := t.TempDir()
	svc := newTestService(t, Options{Dir: dir})
	ds, err := svc.Registry().Upload("panics", 3*tbiCost, bytes.NewReader(edgeListBytes(t, testGraph(t, 40))))
	if err != nil {
		t.Fatal(err)
	}
	// One clean release first, so the chain on disk is not empty.
	good := MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5, Keep: true}
	if _, err := svc.Measure(ds.ID, good); err != nil {
		t.Fatal(err)
	}
	bad := MeasureRequest{Eps: 1, Workloads: []string{"tbi-panics-at-13"}, Bucket: poisoned, Seed: 6, Keep: true}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the poisoned workload did not panic inside Measure")
			}
		}()
		svc.Measure(ds.ID, bad)
	}()

	type outcome struct {
		info DatasetInfo
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		if _, err := svc.Measure(ds.ID, good); err != nil {
			done <- outcome{err: err}
			return
		}
		info, err := svc.Registry().Info(ds.ID)
		done <- outcome{info, err}
	}()
	var after outcome
	select {
	case after = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Measure/Info on the dataset did not return after a panic under its lock: the dataset is wedged")
	}
	if after.err != nil {
		t.Fatalf("measure after the panic: %v", after.err)
	}
	if want := 3 * tbiCost; math.Abs(after.info.Ledger.Spent-want) > 1e-9 {
		t.Errorf("ledger spent %g, want %g: two releases and the panicked attempt's standing debit", after.info.Ledger.Spent, want)
	}
	if got := obs.Default.GaugeVec("wpinq_dataset_budget_spent", "", "dataset").With(ds.ID).Value(); got != after.info.Ledger.Spent {
		t.Errorf("exported budget gauge %g drifted from the ledger's %g", got, after.info.Ledger.Spent)
	}
	inMemory := svc.Store().Provenance(ds.ID)
	reread, err := NewStore(dir, nil)
	if err != nil {
		t.Fatalf("the persisted store no longer loads: %v", err)
	}
	if onDisk := reread.Provenance(ds.ID); len(inMemory) != 3 || !reflect.DeepEqual(onDisk, inMemory) {
		t.Fatalf("provenance chain on disk %+v != in memory %+v (want two releases around the failed attempt, nothing torn)", onDisk, inMemory)
	}
	failed := inMemory[1]
	if failed.Op != ProvenanceOpMeasureFailed || failed.Failure != "panic" || failed.Measurement != "" ||
		math.Abs(failed.Cost-tbiCost) > 1e-9 || math.Abs(failed.SpentAfter-2*tbiCost) > 1e-9 ||
		!reflect.DeepEqual(failed.Workloads, bad.Workloads) || failed.Eps != bad.Eps {
		t.Errorf("the panicked attempt is chained as %+v, want a measure-failed record of its charge", failed)
	}
	if rep, err := svc.Audit(ds.ID); err != nil || !rep.OK || rep.Verified != 3 || math.Abs(rep.SpentReplayed-after.info.Ledger.Spent) > 1e-9 {
		t.Errorf("audit after the panic: %+v (err=%v), want OK with the chain replaying to the ledger's spend", rep, err)
	}
}
