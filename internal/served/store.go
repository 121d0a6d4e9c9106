package served

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Job states as persisted and served.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// JobRecord is the durable row of the job table: everything needed to
// re-list the job after a restart and to decide whether it must resume.
type JobRecord struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	State     string    `json:"state"`
	Spec      JobSpec   `json:"spec"`
	Submitted time.Time `json:"submitted"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Probes is the final probe count of a finished job.
	Probes uint64 `json:"probes,omitempty"`
	// Interfaces is the discovered interface count of a finished job.
	Interfaces int `json:"interfaces,omitempty"`
	// Migrations is the shard-handoff count of a finished cluster job.
	Migrations int `json:"migrations,omitempty"`
	// StopSetDegraded is the stop-set degradation episode count of a
	// finished cluster job.
	StopSetDegraded uint64 `json:"stopset_degraded,omitempty"`
}

// Store is the daemon's state directory: one JSON record, one checkpoint
// snapshot and one NDJSON result file per job, under <dir>/jobs. All
// writes go through an atomic temp-file rename, so a crash never leaves
// a half-written record to resume from.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a state directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("served: state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) recordPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".json")
}

// CheckpointPath is where a job's latest snapshot lives.
func (st *Store) CheckpointPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".ckpt")
}

// ResultsPath is where a finished job's NDJSON results live.
func (st *Store) ResultsPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".ndjson")
}

// atomicWrite writes data to path via a temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PutRecord persists a job record atomically.
func (st *Store) PutRecord(r *JobRecord) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return atomicWrite(st.recordPath(r.ID), data)
}

// PutCheckpoint persists a job's latest snapshot atomically.
func (st *Store) PutCheckpoint(id string, snapshot []byte) error {
	return atomicWrite(st.CheckpointPath(id), snapshot)
}

// ShardCheckpointPath is where one shard's snapshot of a cluster job
// lives. Cluster jobs persist one checkpoint per shard (each worker
// loop has its own engine state), so a daemon restart can resume every
// shard rather than re-running the whole job.
func (st *Store) ShardCheckpointPath(id string, shard int) string {
	return filepath.Join(st.dir, "jobs", fmt.Sprintf("%s.shard-%d.ckpt", id, shard))
}

// PutShardCheckpoint persists one shard's latest snapshot atomically.
func (st *Store) PutShardCheckpoint(id string, shard int, snapshot []byte) error {
	return atomicWrite(st.ShardCheckpointPath(id, shard), snapshot)
}

// ShardCheckpoints loads every persisted shard snapshot of a cluster
// job, keyed by shard index. An empty map means the job has no shard
// checkpoints (it barely started — re-run it fresh).
func (st *Store) ShardCheckpoints(id string) (map[int][]byte, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	prefix := id + ".shard-"
	out := make(map[int][]byte)
	for _, e := range entries {
		name := e.Name()
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, ".ckpt")
		if !ok {
			continue
		}
		shard, err := strconv.Atoi(numStr)
		if err != nil || shard < 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "jobs", name))
		if err != nil {
			return nil, err
		}
		out[shard] = data
	}
	return out, nil
}

// RemoveShardCheckpoints deletes a finished cluster job's shard
// snapshots (they are only meaningful while the job can still resume).
func (st *Store) RemoveShardCheckpoints(id string) error {
	snaps, err := st.ShardCheckpoints(id)
	if err != nil {
		return err
	}
	for shard := range snaps {
		if err := os.Remove(st.ShardCheckpointPath(id, shard)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Checkpoint loads a job's snapshot; ok is false when none was written.
func (st *Store) Checkpoint(id string) (snapshot []byte, ok bool, err error) {
	data, err := os.ReadFile(st.CheckpointPath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// PutResultsStream persists a job's NDJSON results atomically without
// buffering them in memory: write streams into a buffered temp file
// that is renamed over the results path on success and removed on any
// failure — the emit path's k-way merge over store stripes flows
// straight to disk.
func (st *Store) PutResultsStream(id string, write func(io.Writer) error) error {
	path := st.ResultsPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadResults loads a finished job's NDJSON results.
func (st *Store) ReadResults(id string) ([]byte, error) {
	return os.ReadFile(st.ResultsPath(id))
}

// LoadAll reads every persisted job record, ordered by submission time
// (ties broken by ID) — the job table a restarting daemon resumes from.
// Lexicographic ID order is NOT creation order once the sequential
// counter outgrows its zero padding, so the timestamp is authoritative.
func (st *Store) LoadAll() ([]*JobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var out []*JobRecord
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "jobs", name))
		if err != nil {
			return nil, err
		}
		var r JobRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("served: corrupt job record %s: %w", name, err)
		}
		out = append(out, &r)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
