package served

import (
	"testing"
	"time"
)

// TestTerminalJobReleasesScan: a finished job must not pin its scan — the
// handle is how the daemon reaches the scanner, its DCB array and the
// result store, and a daemon keeps every job record for listing. Once a
// job is terminal its liveHandle is nil and any checkpoint loaded for a
// resume is dropped, for plain and cluster jobs alike; rate pushes and
// status reads that arrive afterwards (the budget re-divides when a job
// leaves) stay safe and keep reporting the final counts.
func TestTerminalJobReleasesScan(t *testing.T) {
	srv, ts := newTestServer(t, Config{GlobalPPS: 100_000})
	specs := []JobSpec{
		{Blocks: 256, Seed: 3, Lockstep: true},
		{Blocks: 256, Seed: 3, Lockstep: true, Type: "cluster", Workers: 2},
	}
	for _, spec := range specs {
		id := submit(t, ts, spec)
		st := pollStatus(t, ts, id, 30*time.Second, terminal)
		if st.State != StateDone {
			t.Fatalf("%q job ended %s (%s)", spec.Type, st.State, st.Error)
		}

		srv.mu.Lock()
		j := srv.jobs[id]
		held := j.liveHandle() != nil || j.snapshot != nil || j.shardSnaps != nil
		srv.mu.Unlock()
		if held {
			t.Errorf("%q job is done but still holds its scan handle or checkpoints", spec.Type)
		}

		j.applyRate(12_345) // a late budget push: nothing to retarget
		after, apiErr := srv.Status(id)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if after.State != StateDone || after.Probes != st.Probes || after.Interfaces != st.Interfaces {
			t.Errorf("%q job status after release = %+v, want the final %+v", spec.Type, after, st)
		}
	}
}
