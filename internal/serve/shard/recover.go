package shard

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// journalManifestName is the pointer to the current journal generation.
// Like the snapshot manifest it is the only thing that makes a generation
// authoritative, and it is switched by atomic rename — so a crash at any
// instant during boot-time replay leaves it pointing at a complete
// generation (the previous one until the switch, the new one after),
// never at a half-replayed mix.
const journalManifestName = "journal.manifest.json"

// journalManifestVersion guards the directory layout, not the per-file
// frame format (the journal file carries its own magic).
const journalManifestVersion = 1

// journalManifest names the current generation. Files is the number of
// WAL files in it: 1 for everything this package writes, N for a
// generation an N-shard daemon wrote, which recovery still replays.
type journalManifest struct {
	Version int    `json:"version"`
	Files   int    `json:"shards"`
	Gen     string `json:"gen"`
}

// journalFile names WAL file i within journal generation gen.
func journalFile(dir, gen string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-%s-%03d.wal", gen, i))
}

// RecoveryStats describes a boot-time recovery: how much of the previous
// incarnation's journaled state came back, and how. Defined in serve so
// the stats/metrics layer can reference it without an import cycle.
type RecoveryStats = serve.RecoveryStats

// Recover makes the coordinator's state crash-durable against dir, in
// three steps:
//
//  1. A fresh journal generation is created and attached to the server,
//     so every acknowledged mutation (session applies AND
//     vocabulary/data writes) is journaled from here on.
//  2. The previous generation (per the journal manifest, if any) is
//     replayed in file and sequence order through the ordinary serving
//     path: session and subscription records through SetSession,
//     DropSession, Subscribe and Unsubscribe, vocabulary records through
//     serve.Server.Apply. Vocabulary records the restored snapshot
//     already covers (per the snapshot manifest's checkpoint fields,
//     matched by journal generation) are skipped. Because the applies
//     are themselves journaled, the replay rewrites the surviving state
//     into the new generation (a free compaction).
//  3. The manifest is switched to the new generation by atomic rename and
//     superseded files are removed best-effort.
//
// A crash before step 3's rename leaves the manifest on the old
// generation: the next boot replays the same complete state again
// (session replay is idempotent, and checkpoint coverage makes
// vocabulary replay exactly-once against the same snapshot) and the
// partial new-generation files are cleaned up as stale.
//
// A generation an N-shard daemon wrote holds N WAL files, each carrying
// its own users' sessions and subscriptions plus a copy of every
// vocabulary write under a shared broadcast id (BID). All files are
// replayed, and each BID is applied once; the records rewritten into the
// new single-file generation carry no BID.
//
// Call once, after construction (and snapshot restore) but before serving
// traffic. Pair with CloseJournals on shutdown.
func (c *Coordinator) Recover(dir string, opts journal.Options) (RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("shard: journal dir: %w", err)
	}

	var prev *journalManifest
	raw, err := os.ReadFile(filepath.Join(dir, journalManifestName))
	switch {
	case err == nil:
		var m journalManifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return stats, fmt.Errorf("shard: parsing journal manifest: %w", err)
		}
		if m.Version != journalManifestVersion {
			return stats, fmt.Errorf("shard: journal manifest version %d unsupported (want %d)", m.Version, journalManifestVersion)
		}
		if m.Files <= 0 {
			return stats, fmt.Errorf("shard: journal manifest reports %d files", m.Files)
		}
		prev = &m
	case os.IsNotExist(err):
		// First boot with journaling: nothing to replay.
	default:
		return stats, fmt.Errorf("shard: reading journal manifest: %w", err)
	}

	gen, err := newID()
	if err != nil {
		return stats, fmt.Errorf("shard: journal gen id: %w", err)
	}
	j, _, err := journal.Open(journalFile(dir, gen, 0), opts)
	if err != nil {
		return stats, fmt.Errorf("shard: opening journal: %w", err)
	}
	c.AttachJournal(j)
	c.journal = j
	c.journalGen = gen
	c.fs = opts.FS
	if c.fs == nil {
		c.fs = journal.OSFS{}
	}

	if prev != nil {
		// Replay re-journals every surviving record through the attached
		// new-generation WAL. Each apply waits for its record's commit,
		// strictly one at a time, so with per-batch fsync on a large
		// session population boot would pay one fsync per record.
		// Suspend syncing for the replay window (no traffic is being
		// acknowledged — Recover runs before serving) and fsync once
		// before the manifest switch below makes the new generation
		// authoritative.
		if !opts.NoSync {
			j.SetNoSync(true)
		}
		if err := c.replay(dir, prev, &stats); err != nil {
			return stats, err
		}
		if !opts.NoSync {
			j.SetNoSync(false)
			if err := j.Sync(); err != nil {
				return stats, fmt.Errorf("shard: syncing replayed journal: %w", err)
			}
		}
	}

	// Publish the new generation durably: WAL file data is already
	// fsynced (per batch, or by the barrier above), so what remains is
	// metadata — the WAL directory entry, the manifest's *content*
	// (WriteFileSync; a bare os.WriteFile could leave a zero-length
	// manifest after a power cut, bricking every subsequent boot), and
	// the rename itself. Only after all of that is the old generation
	// eligible for deletion.
	mf, err := json.Marshal(journalManifest{Version: journalManifestVersion, Files: 1, Gen: gen})
	if err != nil {
		return stats, err
	}
	if err := switchManifest(c.fs, dir, journalManifestName, mf); err != nil {
		return stats, fmt.Errorf("shard: journal manifest: %w", err)
	}
	removeStale(dir, "sessions-", ".wal", gen)
	published := stats
	c.recovery.Store(&published)
	return stats, nil
}

// replay applies the previous generation's records onto the server,
// filling stats. A record whose re-apply fails is preserved: appended raw
// to the new generation so the next boot retries it. Without this the
// manifest switch plus stale-file cleanup would destroy the only copy
// over a possibly transient apply error (classic case: the boot snapshot
// predates the vocabulary the session references). The Preserved flag
// exempts the record from checkpoint truncation — its effect is not in
// any snapshot. A record that cannot be preserved aborts the recovery
// before the manifest switch, so the old generation stays authoritative.
func (c *Coordinator) replay(dir string, prev *journalManifest, stats *RecoveryStats) error {
	// Checkpoint pairing: the snapshot manifest (same dir) names the
	// journal generation its checkpoint fields cover. Only when that
	// matches the generation being replayed may coverage be used to skip
	// records — an older snapshot paired with a since-replaced generation
	// says nothing about these files.
	var ckptSeqs []uint64
	var ckptBID uint64
	paired := false
	if sm, err := readSnapshotManifest(dir); err == nil && sm.JournalGen != "" && sm.JournalGen == prev.Gen {
		paired = true
		ckptSeqs = sm.CheckpointSeqs
		ckptBID = sm.CheckpointBID
	}
	var preserveErr error
	preserve := func(rec journal.Record) {
		stats.Failed++
		rec.Preserved = true
		if err := c.journal.Append(rec); err != nil && preserveErr == nil {
			preserveErr = err
		}
	}
	// seenBID deduplicates the copies of one broadcast write that every
	// file of an N-shard generation carries: the first copy is applied
	// (or preserved), the rest are skipped.
	seenBID := make(map[uint64]bool)
	for i := 0; i < prev.Files; i++ {
		var covered uint64
		if paired && i < len(ckptSeqs) {
			covered = ckptSeqs[i]
		}
		rs, err := journal.Replay(journalFile(dir, prev.Gen, i), func(rec journal.Record) error {
			if rec.Op.IsVocab() {
				// Skip what the restored snapshot already contains — by
				// this file's sequence cut, or by an N-shard checkpoint's
				// broadcast frontier (both generation-gated above).
				// Preserved records never applied, so no snapshot covers
				// them.
				if !rec.Preserved && paired && (rec.Seq <= covered || (rec.BID > 0 && rec.BID <= ckptBID)) {
					stats.SkippedCheckpoint++
					return nil
				}
				if rec.BID > 0 {
					if seenBID[rec.BID] {
						stats.SkippedDuplicate++
						return nil
					}
					seenBID[rec.BID] = true
				}
			}
			if c.replayRecord(rec, stats) != nil {
				// Keep replaying: one bad record must not lose the rest.
				preserve(rec)
			}
			return nil
		})
		if err != nil {
			stats.BadFiles++
			continue
		}
		if rs.Records > 0 || rs.Torn {
			stats.Files++
		}
		stats.Records += rs.Records
		if rs.Torn {
			stats.TornFiles++
		}
	}
	stats.Users = c.Server.Stats().Sessions
	if preserveErr != nil {
		return fmt.Errorf("shard: preserving failed records in new journal generation: %w", preserveErr)
	}
	return nil
}

// replayRecord re-applies one journaled record through the serving path
// and counts it. An error means the record must be preserved.
func (c *Coordinator) replayRecord(rec journal.Record, stats *RecoveryStats) error {
	switch rec.Op {
	case journal.OpSet:
		fp, err := c.SetSession(rec.User, serve.FromJournalMeasurements(rec.Measurements))
		if err != nil {
			return err
		}
		if rec.Fingerprint != "" && fp != rec.Fingerprint {
			stats.FingerprintMismatches++
		}
	case journal.OpDrop:
		if err := c.DropSession(rec.User); err != nil {
			return err
		}
		stats.Drops++
	case journal.OpDeclare, journal.OpAssert, journal.OpAddRules, journal.OpRemoveRule, journal.OpExec:
		if _, err := c.Apply(rec); err != nil {
			return err
		}
		switch rec.Op {
		case journal.OpDeclare:
			stats.Declares++
		case journal.OpAssert:
			stats.Asserts++
		case journal.OpAddRules:
			stats.RuleAdds++
		case journal.OpRemoveRule:
			stats.RuleRemoves++
		default:
			stats.Execs++
		}
	case journal.OpSubscribe:
		// Standing subscriptions re-register: the re-subscribe journals
		// into the new generation and the push stream resumes without the
		// client re-subscribing (it reconnects to the same id).
		if rec.Subscription == nil {
			return fmt.Errorf("shard: subscribe record %q without a spec", rec.SubID)
		}
		spec := serve.FromJournalSubscription(rec.User, *rec.Subscription)
		if _, err := c.Subscribe(rec.SubID, spec); err != nil {
			return err
		}
		stats.Subscribes++
	case journal.OpUnsubscribe:
		// Replay order within a file matches append order, so this
		// retires any earlier re-subscribe of the id.
		if _, err := c.Unsubscribe(rec.SubID); err != nil {
			return err
		}
		stats.Unsubscribes++
	default:
		// A record from a newer format revision: preserve it verbatim
		// rather than abort (or silently drop) — a downgrade-then-upgrade
		// cycle keeps the data.
		return fmt.Errorf("shard: unknown journal op %d", rec.Op)
	}
	return nil
}

// newID returns a fresh random generation id.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// switchManifest durably replaces dir/name with content: the directory
// entries written so far, the manifest's content (WriteFileSync) and the
// rename itself all reach the disk before it returns.
func switchManifest(fsys journal.FS, dir, name string, content []byte) error {
	journal.SyncDirFS(fsys, dir)
	tmp := filepath.Join(dir, name+".tmp")
	if err := journal.WriteFileSyncFS(fsys, tmp, content, 0o644); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	journal.SyncDirFS(fsys, dir)
	return nil
}

// removeStale best-effort deletes the files named prefix…suffix that do
// not belong to generation keep — superseded generations, or leftovers of
// a boot or save that crashed before its manifest switch.
func removeStale(dir, prefix, suffix, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && !strings.HasPrefix(name, prefix+keep+"-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// CloseJournals drains and closes the journal opened by Recover. Call
// after HTTP shutdown: a Set racing Close gets an explicit journal-closed
// error instead of a silent durability gap.
func (c *Coordinator) CloseJournals() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Close()
}
