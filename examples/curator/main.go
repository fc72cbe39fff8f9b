// Command curator walks through the paper's two-party deployment story
// (Section 5.1) against a live wpinqd service started in-process:
//
//  1. The curator uploads a protected graph with a privacy budget and
//     takes DP measurements of it; the server debits the budget and
//     discards the graph — from here on the sensitive data is gone.
//  2. A second measurement attempt bounces off the exhausted budget
//     with a structured overdraw error.
//  3. The analyst — who never saw the graph — lists the released
//     measurements, submits an asynchronous synthesis job, polls its
//     progress, and downloads a public synthetic graph fitting the
//     releases.
//
// Run it with:
//
//	go run ./examples/curator
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Start wpinqd on a loopback port, exactly as `wpinqd -addr ...`
	// would without -data (a private temporary store that Close removes).
	svc, err := service.New(service.Options{Seed: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("wpinqd serving on %s\n\n", base)

	// --- The curator's side: the only party that ever sees the data.
	g, err := graph.HolmeKim(150, 4, 0.6, rand.New(rand.NewSource(42)))
	if err != nil {
		return err
	}
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, g); err != nil {
		return err
	}
	curator := service.NewClient(base)
	// Budget for exactly one measurement bundle, by registered workload
	// cost: 3 eps of seed measurements + 4 eps for "tbi" + 2 eps for
	// "wedges", at eps = 0.5. (`wpinq workloads` lists the registry.)
	const eps = 0.5
	budget := 9 * eps
	ds, err := curator.Upload("collab", budget, &edges)
	if err != nil {
		return err
	}
	fmt.Printf("curator: uploaded %q as %s: %d nodes, %d edges, budget %g\n",
		ds.Name, ds.ID, ds.Nodes, ds.Edges, ds.Ledger.Budget)

	mres, err := curator.Measure(ds.ID, service.MeasureRequest{
		Eps: eps, Workloads: []string{"tbi", "wedges"}, Seed: 7,
	})
	if err != nil {
		return err
	}
	fmt.Printf("curator: released %s at privacy cost %g; remaining budget %g; graph discarded=%v\n",
		mres.Measurement.ID, mres.Cost, mres.Ledger.Remaining, mres.Discarded)

	// The budget is spent and the graph is gone: a second measurement is
	// structurally refused.
	_, err = curator.Measure(ds.ID, service.MeasureRequest{Eps: eps, Workloads: []string{"tbi"}})
	var api *service.APIError
	if !errors.As(err, &api) {
		return fmt.Errorf("expected a structured overdraw error, got %v", err)
	}
	fmt.Printf("curator: second measurement refused: %s (requested %g, remaining %g)\n\n",
		api.Code, api.Requested, api.Remaining)

	// --- The analyst's side: works only with released measurements.
	analyst := service.NewClient(base)
	releases, err := analyst.Measurements()
	if err != nil {
		return err
	}
	for _, m := range releases {
		fmt.Printf("analyst: release %s: eps %g, kinds %v, %d bytes\n", m.ID, m.Eps, m.Kinds, m.Bytes)
	}

	job, err := analyst.SubmitJob(service.JobRequest{
		Measurement:   releases[0].ID,
		Steps:         20000,
		Seed:          9,
		ProgressEvery: 2000,
	})
	if err != nil {
		return err
	}
	fmt.Printf("analyst: submitted job %s (%d MCMC steps)\n", job.ID, job.Steps)
	final, err := analyst.WaitJob(job.ID, 200*time.Millisecond, func(st service.JobStatus) {
		if st.State == service.JobRunning {
			fmt.Printf("analyst: job %s step %d/%d score %.4g accept %.1f%%\n",
				st.ID, st.Step, st.Steps, st.Score, 100*st.AcceptRate)
		}
	})
	if err != nil {
		return err
	}
	if final.State != service.JobDone {
		return fmt.Errorf("job finished %s: %s", final.State, final.Error)
	}
	synthetic, err := analyst.JobResult(job.ID)
	if err != nil {
		return err
	}
	fmt.Printf("\nanalyst: synthetic graph: %d nodes, %d edges, %d triangles (original had %d)\n",
		synthetic.NumNodes(), synthetic.NumEdges(), synthetic.Triangles(), g.Triangles())
	fmt.Printf("analyst: final fit score %.6g after %d accepted swaps\n", final.Score, final.Accepted)
	fmt.Println("\nThe protected graph existed only inside the measure call; everything " +
		"the analyst touched was differentially private.")
	return nil
}
