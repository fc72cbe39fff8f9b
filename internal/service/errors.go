package service

import (
	"errors"
	"fmt"
)

// Domain errors the HTTP layer maps to structured responses. They are
// exported through errors.Is/As so in-process embedders (tests, the
// curator example) can branch on them the same way remote clients
// branch on APIError.Code.
var (
	// ErrNotFound reports a dataset, measurement, or job ID that the
	// service does not know.
	ErrNotFound = errors.New("service: not found")
	// ErrDiscarded reports a measurement request against a dataset whose
	// protected graph has already been discarded (the paper's
	// post-measurement state). The ledger remains queryable.
	ErrDiscarded = errors.New("service: dataset discarded after measurement")
	// ErrQueueFull reports that the synthesis job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrJobNotDone reports a result download for a job that has not
	// produced a graph yet.
	ErrJobNotDone = errors.New("service: job has no result yet")
	// ErrJobFinished reports a cancellation of a job that already
	// reached a terminal state.
	ErrJobFinished = errors.New("service: job already finished")
	// ErrManagerClosed reports a submission to a job manager that has
	// been Closed (the daemon is shutting down). Without this guard a
	// late submission would enqueue onto a queue no worker will ever
	// drain again and sit "queued" forever.
	ErrManagerClosed = errors.New("service: job manager closed")
	// ErrInternal marks server-side faults (e.g. persistence I/O): the
	// caller's input was fine and the request may be retried.
	ErrInternal = errors.New("service: internal error")
)

// APIError is the structured error body every HTTP endpoint returns on
// failure, and the error type the Client surfaces. For budget overdraw
// the Requested/Remaining fields carry the ledger figures.
type APIError struct {
	Status    int     `json:"-"`
	Code      string  `json:"code"`
	Message   string  `json:"message"`
	Requested float64 `json:"requested,omitempty"`
	Remaining float64 `json:"remaining,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Error codes carried in APIError.Code.
const (
	CodeBadRequest         = "bad_request"
	CodeRequestTooLarge    = "request_too_large"
	CodeNotFound           = "not_found"
	CodeInsufficientBudget = "insufficient_budget"
	CodeDatasetDiscarded   = "dataset_discarded"
	CodeQueueFull          = "queue_full"
	CodeJobNotDone         = "job_not_done"
	CodeJobFinished        = "job_finished"
	CodeShuttingDown       = "shutting_down"
	CodeCheckpointStale    = "checkpoint_stale"
	CodeInternal           = "internal"
)
