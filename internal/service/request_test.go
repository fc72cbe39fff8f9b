package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestNegativeCheckpointEveryIsRefused: a checkpoint cadence below 0 is
// a 400 bad_request and queues nothing — not even a job ID.
func TestNegativeCheckpointEveryIsRefused(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	before := svc.jobs.nextID
	rec := postRaw(svc.Handler(), "/v1/jobs", []byte(`{"measurement":"`+mID+`","steps":10,"checkpointEvery":-1}`))
	var api APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil || rec.Code != http.StatusBadRequest || api.Code != CodeBadRequest {
		t.Fatalf("checkpointEvery=-1: got %d %q (%v), want 400 %s", rec.Code, rec.Body, err, CodeBadRequest)
	}
	if jobs := svc.Jobs().List(); len(jobs) != 0 {
		t.Errorf("%d jobs queued, want none", len(jobs))
	}
	if after := svc.jobs.nextID; after != before {
		t.Errorf("next job ID moved %d -> %d", before, after)
	}
}
