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

// TestJobSettingFlagsAreUndefined pins a job to its request: the daemon
// has no default checkpoint cadence to fall back on, and no chain count or
// swap cadence at all (a fit is one chain).
func TestJobSettingFlagsAreUndefined(t *testing.T) {
	for _, args := range [][]string{{"-chains", "2"}, {"-swap-every", "512"}, {"-checkpoint-every", "500"}} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("wpinqd %s: got %v, want an undefined-flag error", strings.Join(args, " "), err)
		}
	}
}
