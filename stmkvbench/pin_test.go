package main

import (
	"runtime"
	"testing"
)

// TestPinClient checks that pinning moves every thread onto the
// client's CPU with GOMAXPROCS 1, and that undo restores both.
func TestPinClient(t *testing.T) {
	before, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	split, undo, err := pinClient()
	if err != nil {
		t.Fatal(err)
	}
	if split.client < 0 {
		undo()
		t.Skip("fewer than two CPUs")
	}
	if split.client == split.server || !before.has(split.client) || !before.has(split.server) {
		t.Errorf("split %+v is not two distinct CPUs of %v", split, before)
	}
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Errorf("GOMAXPROCS pinned = %d, want 1", got)
	}
	var want cpuMask
	want.add(split.client)
	tids, err := threads()
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range tids {
		if m, err := getAffinity(tid); err == nil && m != want {
			t.Errorf("thread %d affinity %v, want only CPU %d", tid, m, split.client)
		}
	}
	undo()
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS after undo = %d, want %d", got, procs)
	}
	if m, _ := getAffinity(0); m != before {
		t.Errorf("affinity after undo %v, want %v", m, before)
	}
}
