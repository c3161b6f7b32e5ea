package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	contextrank "repro"
	"repro/internal/serve/journal"
)

// manifestName is the snapshot-directory manifest recording which save
// generation is current.
const manifestName = "manifest.json"

// manifestVersion guards the directory layout, not the snapshot format
// (engine.Dump carries its own version).
const manifestVersion = 1

// manifest names the current snapshot. Everything this package writes
// holds one snapshot file (Files = 1); a set an N-shard daemon wrote
// holds N replicas of the same vocabulary, and restore reads file 0.
type manifest struct {
	Version int    `json:"version"`
	Files   int    `json:"shards"`
	Save    string `json:"save"` // generation id the snapshot files carry
	// JournalGen pairs this snapshot with the WAL generation whose
	// records it covers. The checkpoint fields below are meaningful only
	// against that generation's files: after a boot creates a fresh
	// generation, an old snapshot's coverage says nothing about the new
	// files, and recovery ignores the fields rather than wrongly skipping
	// records. Empty when the save ran without a journal.
	JournalGen string `json:"journal_gen,omitempty"`
	// CheckpointSeqs[i] is WAL file i's journal sequence at the snapshot
	// cut: every vocabulary record with Seq <= CheckpointSeqs[i] in file
	// i (of generation JournalGen) is reflected in the snapshot.
	CheckpointSeqs []uint64 `json:"checkpoint_seqs,omitempty"`
	// CheckpointBID is an N-shard checkpoint's broadcast-id frontier:
	// every broadcast write with BID <= CheckpointBID is in the snapshot.
	// Read for old directories only; this package never writes it.
	CheckpointBID uint64 `json:"checkpoint_bid,omitempty"`
}

// snapshotFile names snapshot file i within save generation id.
func snapshotFile(dir, id string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%s-%03d.snapshot.json", id, i))
}

// Checkpoint dumps the engine's database (serve.Server.CheckpointDump:
// engine.Dump plus the persisted rule repository, with session context
// suspended) into one snapshot file in dir plus a manifest, creating dir
// if needed. The dump runs under the server's write lock, so it is a
// consistent cut.
//
// The save is atomic: the snapshot file carries a fresh generation id,
// and the manifest — renamed into place last — is the only pointer to a
// generation. A crash at any instant leaves the manifest referencing a
// complete snapshot (the previous one until the final rename, the new
// one after). Files of superseded generations, including every replica
// of an N-shard save, are removed best-effort after the switch.
//
// Sessions are not part of snapshots: they are journaled continuously by
// the WAL instead (see Recover), which a boot replays on top of the
// restored snapshot. A coordinator without a journal simply starts
// sessionless, context being re-sensed (the paper's §5 position).
//
// With a journal attached a save IS a checkpoint: the manifest records
// the journal generation and the covered sequence, and the WAL is
// truncated down to its live sessions and subscriptions (plus any
// checkpoint-exempt records) once the manifest switch makes the snapshot
// authoritative. SIGTERM's final save and the background checkpointer
// share this path. Truncation happens strictly after the manifest rename
// — a crash in between leaves extra records in the WAL whose replay is
// skipped via the manifest's coverage fields, never a manifest that
// over-promises coverage.
func (c *Coordinator) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: snapshot dir: %w", err)
	}
	id, err := newID()
	if err != nil {
		return fmt.Errorf("shard: save id: %w", err)
	}
	f, err := os.Create(snapshotFile(dir, id, 0))
	if err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	seq, err := c.CheckpointDump(f)
	if err == nil {
		// The manifest switch below makes this file authoritative; its
		// data must hit the disk first or a crash could leave the
		// manifest pointing at a hollow snapshot.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	m := manifest{Version: manifestVersion, Files: 1, Save: id}
	if c.journal != nil {
		m.JournalGen = c.journalGen
		m.CheckpointSeqs = []uint64{seq}
	}
	mf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fsys := c.fs
	if fsys == nil {
		fsys = journal.OSFS{}
	}
	if err := switchManifest(fsys, dir, manifestName, mf); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	removeStale(dir, "shard-", ".snapshot.json", id)
	if c.journal != nil {
		if err := c.journal.Checkpoint(seq); err != nil {
			return fmt.Errorf("shard: truncating journal after checkpoint: %w", err)
		}
	}
	return nil
}

// HasSnapshots reports whether dir holds a snapshot (a readable
// manifest).
func HasSnapshots(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// readSnapshotManifest loads and validates dir's snapshot manifest.
func readSnapshotManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d unsupported (want %d)", m.Version, manifestVersion)
	}
	if m.Files <= 0 {
		return nil, fmt.Errorf("shard: manifest reports %d snapshot files", m.Files)
	}
	return &m, nil
}

// RestoreBuilder returns a New-compatible build function that restores
// the engine from the snapshot in dir. A set an N-shard daemon saved
// holds N copies of the same vocabulary, data and rules, so file 0 is a
// complete restore; sessions live in the journal, whose replay (Recover)
// brings back every file's users.
func RestoreBuilder(dir string) (func(shard int) (*contextrank.System, error), error) {
	m, err := readSnapshotManifest(dir)
	if err != nil {
		return nil, err
	}
	return func(int) (*contextrank.System, error) {
		f, err := os.Open(snapshotFile(dir, m.Save, 0))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return contextrank.RestoreSystem(f)
	}, nil
}
