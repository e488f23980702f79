package dist

import (
	"encoding/json"
	"os"
	"path/filepath"

	"crncompose/internal/reach"
)

// Checkpoint file: the coordinator rewrites it atomically (write-temp,
// rename) after every completed rectangle, and loads it in NewCoordinator,
// so an interrupted coordinator resumes from the completed set instead of
// recomputing.
//
// What the format promises — and doesn't:
//
//   - A checkpoint resumes only the exact same job under the same
//     ProtocolVersion: the file carries a SHA-256 of the JobSpec JSON (CRN
//     text, function name, grid bounds, budgets, rectangle count), and any
//     mismatch makes the coordinator silently start fresh. That is the
//     safe behavior: a changed CRN, budget, or shard count changes rectangle
//     identities, and mixing results across jobs would break determinism.
//   - No cross-version compatibility: a ProtocolVersion bump invalidates
//     old checkpoints (they are ignored, never migrated).
//   - Rectangle results are stored in their wire (JSON) form, so the file
//     is inspectable and the rewrite is byte-stable for a given set of
//     completed rectangles.

// checkpointFile is the on-disk layout.
type checkpointFile struct {
	Version int               `json:"version"` // ProtocolVersion at write time
	Job     string            `json:"job"`     // sha256 hex of the JobSpec JSON
	Done    []checkpointEntry `json:"done"`    // completed rectangles, ascending id
}

// checkpointEntry records one completed rectangle: its wire-form GridResult
// and/or the deterministic enumeration error it reported.
type checkpointEntry struct {
	ID     int             `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// saveCheckpointLocked atomically rewrites the checkpoint with every
// completed rectangle. Caller holds co.mu.
func (co *Coordinator) saveCheckpointLocked() error {
	cp := checkpointFile{Version: ProtocolVersion, Job: co.jobSum}
	for id := range co.states {
		st := &co.states[id]
		if st.status != rectDone {
			continue
		}
		cp.Done = append(cp.Done, checkpointEntry{ID: id, Result: st.raw, Err: st.errMsg})
	}
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := co.cfg.Checkpoint + ".tmp"
	if err := os.MkdirAll(filepath.Dir(co.cfg.Checkpoint), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, co.cfg.Checkpoint)
}

// loadCheckpointLocked restores completed rectangles from the checkpoint
// file, ignoring a missing file and any version or job mismatch (the run
// then starts fresh). Caller holds co.mu.
func (co *Coordinator) loadCheckpointLocked() {
	b, err := os.ReadFile(co.cfg.Checkpoint)
	if err != nil {
		if !os.IsNotExist(err) {
			co.seam.Logf("checkpoint: %v (starting fresh)", err)
		}
		return
	}
	var cp checkpointFile
	if err := json.Unmarshal(b, &cp); err != nil {
		co.seam.Logf("checkpoint: %v (starting fresh)", err)
		return
	}
	if cp.Version != ProtocolVersion || cp.Job != co.jobSum {
		co.seam.Logf("checkpoint: version/job mismatch (starting fresh)")
		return
	}
	restored := 0
	for _, e := range cp.Done {
		if e.ID < 0 || e.ID >= len(co.states) {
			co.seam.Logf("checkpoint: rect %d out of range (skipped)", e.ID)
			continue
		}
		st := &co.states[e.ID]
		if st.status == rectDone {
			continue
		}
		var res reach.GridResult
		if len(e.Result) > 0 {
			res, err = reach.UnmarshalGridResult(e.Result, co.cfg.CRN)
			if err != nil {
				co.seam.Logf("checkpoint: rect %d: %v (skipped)", e.ID, err)
				continue
			}
		} else if e.Err == "" {
			co.seam.Logf("checkpoint: rect %d carries neither result nor error (skipped)", e.ID)
			continue
		}
		st.status = rectDone
		st.result = res
		st.raw = e.Result
		st.errMsg = e.Err
		restored++
	}
	if restored > 0 {
		co.seam.Logf("checkpoint: resumed %d of %d rects from %s", restored, len(co.states), co.cfg.Checkpoint)
	}
}
