package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"goofi/internal/sqldb"
)

// Checkpoint is the durable cursor of a running campaign: which
// experiments of the plan are already logged, plus enough identity
// (plan hash, seed, experiment count) to refuse resuming a campaign
// whose definition changed underneath the checkpoint. The campaign's
// RNG state needs no separate field — planning is plan-first, so the
// seed alone reproduces the full injection plan and every
// per-experiment RNG.
type Checkpoint struct {
	Campaign    string `json:"campaign"`
	PlanHash    string `json:"planHash"`
	Seed        int64  `json:"seed"`
	Experiments int    `json:"experiments"`
	// Reference reports that the fault-free reference run is logged.
	Reference bool `json:"reference"`
	// Completed holds the sequence numbers of experiments whose end
	// records are durable, sorted ascending.
	Completed []int `json:"completed"`
}

// Done reports whether sequence number seq is already completed.
func (cp *Checkpoint) Done(seq int) bool {
	i := sort.SearchInts(cp.Completed, seq)
	return i < len(cp.Completed) && cp.Completed[i] == seq
}

// checkpointDDL is appended to Schema in store.go.
const checkpointDDL = `CREATE TABLE IF NOT EXISTS CampaignCheckpoint (
		campaignName TEXT PRIMARY KEY,
		planHash     TEXT NOT NULL,
		cursor       BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`

// runSpecDDL is appended to Schema in store.go. A campaign's run
// settings (encoded by the runspec package) live next to its cursor but
// outlive it: resume reads them back even after the cursor is gone.
const runSpecDDL = `CREATE TABLE IF NOT EXISTS CampaignRunSpec (
		campaignName TEXT PRIMARY KEY,
		spec         BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`

// PutRunSpec stores a campaign's encoded run settings. It raises no
// barrier: written before the run's first record, the row reaches the
// write-ahead log first, so any durable record implies a durable spec.
func (s *Store) PutRunSpec(campaignName string, spec []byte) error {
	n, err := s.db.Exec(`UPDATE CampaignRunSpec SET spec = ? WHERE campaignName = ?`,
		sqldb.Blob(spec), sqldb.Text(campaignName))
	if err == nil && n == 0 {
		_, err = s.db.Exec(`INSERT INTO CampaignRunSpec VALUES (?, ?)`,
			sqldb.Text(campaignName), sqldb.Blob(spec))
	}
	return err
}

// RunSpec loads a campaign's encoded run settings, or nil when none
// were stored.
func (s *Store) RunSpec(campaignName string) ([]byte, error) {
	r, err := s.db.Query(`SELECT spec FROM CampaignRunSpec WHERE campaignName = ?`,
		sqldb.Text(campaignName))
	if err != nil || len(r.Rows) == 0 {
		return nil, err
	}
	return r.Rows[0][0].B, nil
}

// SaveCheckpoint stores the campaign cursor and raises a durability
// barrier, so a checkpoint on disk always implies its experiments are on
// disk too. Callers that buffer records (BatchingSink) must flush before
// saving; Store writes synchronously, so the ordering holds by
// construction.
func (s *Store) SaveCheckpoint(cp *Checkpoint) error {
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint %q: %w", cp.Campaign, err)
	}
	n, err := s.db.Exec(`UPDATE CampaignCheckpoint SET planHash = ?, cursor = ? WHERE campaignName = ?`,
		sqldb.Text(cp.PlanHash), sqldb.Blob(blob), sqldb.Text(cp.Campaign))
	if err != nil {
		return err
	}
	if n == 0 {
		if _, err := s.db.Exec(`INSERT INTO CampaignCheckpoint VALUES (?, ?, ?)`,
			sqldb.Text(cp.Campaign), sqldb.Text(cp.PlanHash), sqldb.Blob(blob)); err != nil {
			return err
		}
	}
	return s.db.Barrier()
}

// GetCheckpoint loads the stored cursor of a campaign, or nil when the
// campaign has none.
func (s *Store) GetCheckpoint(campaignName string) (*Checkpoint, error) {
	r, err := s.db.Query(`SELECT cursor FROM CampaignCheckpoint WHERE campaignName = ?`,
		sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, nil
	}
	var cp Checkpoint
	if err := json.Unmarshal(r.Rows[0][0].B, &cp); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal checkpoint %q: %w", campaignName, err)
	}
	return &cp, nil
}

// DeleteCheckpoint removes a campaign's cursor (fresh runs and completed
// campaigns have none).
func (s *Store) DeleteCheckpoint(campaignName string) error {
	_, err := s.db.Exec(`DELETE FROM CampaignCheckpoint WHERE campaignName = ?`,
		sqldb.Text(campaignName))
	return err
}

// RecoverCursor reconstructs the resume point of an interrupted
// campaign. The stored checkpoint can lag reality — records flush before
// the cursor row is written, and a crash can land between the two — so
// the durable end-of-experiment rows are unioned in. Detail-trace rows
// whose experiment has no end row (the experiment died mid-run) are
// pruned, so re-running that experiment cannot collide with leftover
// step rows.
func (s *Store) RecoverCursor(campaignName string) (*Checkpoint, error) {
	cp, err := s.GetCheckpoint(campaignName)
	if err != nil {
		return nil, err
	}
	r, err := s.db.Query(`SELECT experimentName FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
		sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	ref := ReferenceName(campaignName)
	have := make(map[string]bool, len(r.Rows))
	completed := make(map[int]bool, len(r.Rows))
	hasRef := false
	for _, row := range r.Rows {
		name := row[0].S
		have[name] = true
		if name == ref {
			hasRef = true
			continue
		}
		if seq, ok := parseExperimentSeq(campaignName, name); ok {
			completed[seq] = true
		}
	}
	out := &Checkpoint{Campaign: campaignName, Reference: hasRef}
	if cp != nil {
		out.PlanHash = cp.PlanHash
		out.Seed = cp.Seed
		out.Experiments = cp.Experiments
		out.Reference = out.Reference || cp.Reference
		for _, seq := range cp.Completed {
			completed[seq] = true
		}
	}
	for seq := range completed {
		out.Completed = append(out.Completed, seq)
	}
	sort.Ints(out.Completed)
	if err := s.pruneOrphanTraces(campaignName, have); err != nil {
		return nil, err
	}
	return out, nil
}

// pruneOrphanTraces deletes detail-mode step rows whose parent
// experiment has no end record.
func (s *Store) pruneOrphanTraces(campaignName string, have map[string]bool) error {
	r, err := s.db.Query(`SELECT DISTINCT parentExperiment FROM LoggedSystemState
		WHERE campaignName = ? AND step >= 0`, sqldb.Text(campaignName))
	if err != nil {
		return err
	}
	for _, row := range r.Rows {
		if row[0].IsNull() || have[row[0].S] {
			continue
		}
		if _, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE parentExperiment = ? AND step >= 0`,
			sqldb.Text(row[0].S)); err != nil {
			return err
		}
	}
	return nil
}

// parseExperimentSeq inverts ExperimentName: "c/exp00042" -> 42. Names
// with any other shape (reference, reruns, detail steps) report false.
func parseExperimentSeq(campaignName, name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, campaignName+"/exp")
	if !ok || rest == "" {
		return 0, false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return seq, true
}
