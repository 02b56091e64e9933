package campaign

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"goofi/internal/sqldb"
)

// Store persists target systems, campaigns and logged experiments in the
// three-table schema of paper Fig 4, with foreign keys preventing
// inconsistencies: CampaignData references TargetSystemData, and
// LoggedSystemState references CampaignData.
type Store struct {
	db *sqldb.DB
	// insertExp is the prepared single-row LoggedSystemState INSERT —
	// the statement on the storage hot path.
	insertExp *sqldb.Stmt
}

// Schema is the DDL of the GOOFI database (Fig 4). Exposed so tools can
// print it.
var Schema = []string{
	`CREATE TABLE IF NOT EXISTS TargetSystemData (
		targetName   TEXT PRIMARY KEY,
		testCardName TEXT NOT NULL,
		config       BLOB NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS CampaignData (
		campaignName TEXT PRIMARY KEY,
		targetName   TEXT NOT NULL,
		testCardName TEXT,
		config       BLOB NOT NULL,
		FOREIGN KEY (targetName) REFERENCES TargetSystemData (targetName)
	)`,
	`CREATE TABLE IF NOT EXISTS LoggedSystemState (
		experimentName   TEXT PRIMARY KEY,
		parentExperiment TEXT,
		campaignName     TEXT NOT NULL,
		step             INTEGER NOT NULL,
		experimentData   BLOB NOT NULL,
		stateVector      BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`,
	// Trace() resolves detail steps by parent experiment; campaignName
	// lookups ride the automatic foreign-key index.
	`CREATE INDEX IF NOT EXISTS LoggedSystemStateByParent
		ON LoggedSystemState (parentExperiment)`,
	// Durable campaign cursor for crash recovery (see checkpoint.go).
	checkpointDDL,
	// Run settings resume repeats (see checkpoint.go).
	runSpecDDL,
	// Campaign phase spans from the telemetry tracer (see telemetry.go).
	telemetryDDL,
}

// NewStore initialises the schema on the given database and returns a
// store over it.
func NewStore(db *sqldb.DB) (*Store, error) {
	for _, ddl := range Schema {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("campaign: init schema: %w", err)
		}
	}
	ins, err := db.Prepare(`INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return nil, fmt.Errorf("campaign: prepare insert: %w", err)
	}
	return &Store{db: db, insertExp: ins}, nil
}

// DB exposes the underlying database for the analysis phase, which runs
// user SQL against LoggedSystemState (paper §3.4).
func (s *Store) DB() *sqldb.DB { return s.db }

// PutTargetSystem inserts or replaces a target system configuration.
func (s *Store) PutTargetSystem(t *TargetSystemData) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cfg, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("campaign: marshal target %q: %w", t.Name, err)
	}
	n, err := s.db.Exec(`UPDATE TargetSystemData SET testCardName = ?, config = ? WHERE targetName = ?`,
		sqldb.Text(t.TestCardName), sqldb.Blob(cfg), sqldb.Text(t.Name))
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = s.db.Exec(`INSERT INTO TargetSystemData VALUES (?, ?, ?)`,
			sqldb.Text(t.Name), sqldb.Text(t.TestCardName), sqldb.Blob(cfg))
	}
	return err
}

// GetTargetSystem loads a target system configuration by name.
func (s *Store) GetTargetSystem(name string) (*TargetSystemData, error) {
	r, err := s.db.Query(`SELECT config FROM TargetSystemData WHERE targetName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no target system %q", name)
	}
	var t TargetSystemData
	if err := json.Unmarshal(r.Rows[0][0].B, &t); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal target %q: %w", name, err)
	}
	return &t, nil
}

// ListTargetSystems returns the configured target system names.
func (s *Store) ListTargetSystems() ([]string, error) {
	r, err := s.db.Query(`SELECT targetName FROM TargetSystemData ORDER BY targetName`)
	if err != nil {
		return nil, err
	}
	return textColumn(r, 0), nil
}

// PutCampaign inserts or replaces a campaign definition. The referenced
// target system must exist (foreign key).
func (s *Store) PutCampaign(c *Campaign) error {
	if err := c.Validate(); err != nil {
		return err
	}
	cfg, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("campaign: marshal campaign %q: %w", c.Name, err)
	}
	ts, err := s.GetTargetSystem(c.TargetName)
	if err != nil {
		return fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	n, err := s.db.Exec(`UPDATE CampaignData SET targetName = ?, testCardName = ?, config = ? WHERE campaignName = ?`,
		sqldb.Text(c.TargetName), sqldb.Text(ts.TestCardName), sqldb.Blob(cfg), sqldb.Text(c.Name))
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = s.db.Exec(`INSERT INTO CampaignData VALUES (?, ?, ?, ?)`,
			sqldb.Text(c.Name), sqldb.Text(c.TargetName), sqldb.Text(ts.TestCardName), sqldb.Blob(cfg))
	}
	return err
}

// GetCampaign loads a campaign definition by name.
func (s *Store) GetCampaign(name string) (*Campaign, error) {
	r, err := s.db.Query(`SELECT config FROM CampaignData WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no campaign %q", name)
	}
	var c Campaign
	if err := json.Unmarshal(r.Rows[0][0].B, &c); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal campaign %q: %w", name, err)
	}
	return &c, nil
}

// ListCampaigns returns all campaign names.
func (s *Store) ListCampaigns() ([]string, error) {
	r, err := s.db.Query(`SELECT campaignName FROM CampaignData ORDER BY campaignName`)
	if err != nil {
		return nil, err
	}
	return textColumn(r, 0), nil
}

// MergeCampaigns combines earlier campaigns into a new one (paper §3.2:
// the user "may ... merge campaign data from several fault injection
// campaigns into a new fault injection campaign"). The first source
// provides the base configuration; locations are unioned and experiment
// counts summed. All sources must share a target system and workload.
func (s *Store) MergeCampaigns(newName string, sources ...string) (*Campaign, error) {
	if len(sources) < 2 {
		return nil, fmt.Errorf("campaign: merge needs at least two sources")
	}
	base, err := s.GetCampaign(sources[0])
	if err != nil {
		return nil, err
	}
	merged := *base
	merged.Name = newName
	seen := make(map[string]bool)
	for _, l := range merged.Locations {
		seen[l] = true
	}
	for _, src := range sources[1:] {
		c, err := s.GetCampaign(src)
		if err != nil {
			return nil, err
		}
		if c.TargetName != merged.TargetName {
			return nil, fmt.Errorf("campaign: merge across target systems (%q vs %q)",
				c.TargetName, merged.TargetName)
		}
		if c.Workload.Name != merged.Workload.Name {
			return nil, fmt.Errorf("campaign: merge across workloads (%q vs %q)",
				c.Workload.Name, merged.Workload.Name)
		}
		for _, l := range c.Locations {
			if !seen[l] {
				seen[l] = true
				merged.Locations = append(merged.Locations, l)
			}
		}
		merged.NumExperiments += c.NumExperiments
	}
	if err := s.PutCampaign(&merged); err != nil {
		return nil, err
	}
	return &merged, nil
}

// encodeExperimentRow flattens a record into the six LoggedSystemState
// column values.
func encodeExperimentRow(r *ExperimentRecord, out []sqldb.Value) ([]sqldb.Value, error) {
	// One allocation for both blobs; the full-capacity slice expression
	// keeps a state append from clobbering data's backing array.
	buf := r.Data.appendJSON(make([]byte, 0, 512))
	n := len(buf)
	buf = r.State.appendJSON(buf)
	data, state := buf[:n:n], buf[n:]
	parent := sqldb.Null()
	if r.Parent != "" {
		parent = sqldb.Text(r.Parent)
	}
	return append(out,
		sqldb.Text(r.Name), parent, sqldb.Text(r.Campaign), sqldb.Int(int64(r.Step)),
		sqldb.Blob(data), sqldb.Blob(state)), nil
}

// LogExperiment stores one LoggedSystemState row.
func (s *Store) LogExperiment(r *ExperimentRecord) error {
	args, err := encodeExperimentRow(r, make([]sqldb.Value, 0, 6))
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = s.insertExp.Exec(args...)
	mInsertSeconds.Observe(time.Since(start).Seconds())
	return err
}

// LogExperimentBatch stores many LoggedSystemState rows with one
// multi-row INSERT — one parse, one lock acquisition, one constraint pass
// per batch. This is the storage hot path for high-throughput campaigns.
func (s *Store) LogExperimentBatch(recs []*ExperimentRecord) error {
	switch len(recs) {
	case 0:
		return nil
	case 1:
		return s.LogExperiment(recs[0])
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO LoggedSystemState VALUES `)
	args := make([]sqldb.Value, 0, len(recs)*6)
	var err error
	for i, r := range recs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(`(?, ?, ?, ?, ?, ?)`)
		if args, err = encodeExperimentRow(r, args); err != nil {
			return err
		}
	}
	start := time.Now()
	_, err = s.db.Exec(sb.String(), args...)
	mInsertSeconds.Observe(time.Since(start).Seconds())
	return err
}

// Flush makes Store satisfy core.ResultSink. Writes are synchronous, so
// there is nothing to flush.
func (s *Store) Flush() error { return nil }

// GetExperiment loads one LoggedSystemState row by experiment name.
func (s *Store) GetExperiment(name string) (*ExperimentRecord, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no experiment %q", name)
	}
	return decodeExperimentRow(r.Rows[0])
}

// Experiments returns the end-of-experiment records of a campaign in
// sequence order, excluding detail-mode trace steps.
func (s *Store) Experiments(campaignName string) ([]*ExperimentRecord, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? AND step = -1 ORDER BY experimentName`,
		sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	out := make([]*ExperimentRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec, err := decodeExperimentRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Trace returns the detail-mode per-instruction records of one experiment
// in step order.
func (s *Store) Trace(experimentName string) ([]*ExperimentRecord, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE parentExperiment = ? AND step >= 0 ORDER BY step`,
		sqldb.Text(experimentName))
	if err != nil {
		return nil, err
	}
	out := make([]*ExperimentRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec, err := decodeExperimentRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// DeleteExperiments removes all logged state of a campaign (for re-runs).
// Derived analysis rows referencing the logged experiments are removed
// first, so the foreign keys cannot block the re-run.
func (s *Store) DeleteExperiments(campaignName string) error {
	for _, t := range s.db.TableNames() {
		if t == "AnalysisResults" {
			if _, err := s.db.Exec(`DELETE FROM AnalysisResults WHERE campaignName = ?`,
				sqldb.Text(campaignName)); err != nil {
				return err
			}
		}
	}
	_, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE campaignName = ?`, sqldb.Text(campaignName))
	return err
}

// DeleteExperiment removes one experiment's logged state (and any
// detail-mode trace rows parented to it) so the experiment can be
// re-attempted — `goofi resume -retry-invalid` uses this to clear
// invalid-run records before resuming.
func (s *Store) DeleteExperiment(name string) error {
	if _, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE parentExperiment = ?`,
		sqldb.Text(name)); err != nil {
		return err
	}
	_, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(name))
	return err
}

func decodeExperimentRow(row []sqldb.Value) (*ExperimentRecord, error) {
	rec := &ExperimentRecord{
		Name:     row[0].S,
		Campaign: row[2].S,
		Step:     int(row[3].I),
	}
	if !row[1].IsNull() {
		rec.Parent = row[1].S
	}
	if err := json.Unmarshal(row[4].B, &rec.Data); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal experiment data: %w", err)
	}
	sv, err := DecodeStateVector(row[5].B)
	if err != nil {
		return nil, err
	}
	rec.State = *sv
	return rec, nil
}

func textColumn(r *sqldb.Result, i int) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[i].S)
	}
	return out
}
