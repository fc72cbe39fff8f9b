package main

import (
	"strings"
	"testing"
)

// TestShardsFlagIsUndefined pins the daemon's one parallelism axis: every
// job fits at one shard, so there is no shard flag to set.
func TestShardsFlagIsUndefined(t *testing.T) {
	err := run([]string{"-shards", "1"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("wpinqd -shards 1: got %v, want an undefined-flag error", err)
	}
}
