package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// setRecord is a journaled session apply of sessionFor(i) for user.
func setRecord(user string, i int) journal.Record {
	return journal.Record{Op: journal.OpSet, User: user, Measurements: serve.ToJournalMeasurements(sessionFor(i))}
}

// writeLegacyJournal writes a journal generation in the layout an
// N-shard daemon left behind — one WAL per shard, written through the
// journal API, plus a manifest naming len(files) files — and returns its
// generation id.
func writeLegacyJournal(t *testing.T, dir string, files [][]journal.Record) string {
	t.Helper()
	const gen = "0123456789abcdef"
	for i, recs := range files {
		j, _, err := journal.Open(journalFile(dir, gen, i), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON(t, filepath.Join(dir, journalManifestName), journalManifest{Version: journalManifestVersion, Files: len(files), Gen: gen})
	return gen
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverLegacyMultiShardStateDir boots the single engine from a
// state directory a 2-shard daemon wrote: a snapshot manifest naming two
// replica files, and a journal generation of two WALs. Both WALs carry
// the same broadcast-id-tagged vocabulary writes — the first two covered
// by the checkpoint — and each carries its own users' sessions and one
// subscription. The engine must apply every vocabulary write once, bring
// back every session and subscription, and rank exactly like a fresh
// System that saw the same writes; after one checkpoint the directory is
// in the one-file layout and recovers to the same state.
func TestRecoverLegacyMultiShardStateDir(t *testing.T) {
	dir := t.TempDir()

	// The checkpointed base every replica held: the worked example plus
	// the two covered writes (BIDs 1 and 2).
	covered := []journal.Record{
		{Op: journal.OpExec, BID: 1, Stmt: "CREATE TABLE ckpt_t (n INT)"},
		{Op: journal.OpExec, BID: 2, Stmt: "INSERT INTO ckpt_t (n) VALUES (1)"},
	}
	base := newTestCoordinator(t)
	for _, rec := range covered {
		if _, err := base.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	const save = "fedcba9876543210"
	for i := 0; i < 2; i++ {
		f, err := os.Create(snapshotFile(dir, save, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.CheckpointDump(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// Writes after the checkpoint, broadcast to both shards.
	insert := journal.Record{Op: journal.OpExec, BID: 3, Stmt: "INSERT INTO ckpt_t (n) VALUES (2)"}
	rule := journal.Record{Op: journal.OpAddRules, BID: 4, Rules: []string{"RULE R2 WHEN Weekend PREFER TvProgram WITH 0.3"}}
	assert := journal.Record{Op: journal.OpAssert, BID: 5,
		ConceptAsserts: []serve.ConceptAssertion{{Concept: "TvProgram", ID: "CNN", Prob: 0.7}},
		RoleAsserts:    []serve.RoleAssertion{{Role: "hasGenre", Src: "CNN", Dst: "HUMAN-INTEREST", Prob: 0.4}},
	}
	subA := serve.SubscriptionSpec{User: "alice", Target: "TvProgram", TopK: 2}
	subC := serve.SubscriptionSpec{User: "carol", Candidates: []string{"Oprah", "CNN"}}
	subscribe := func(id string, spec serve.SubscriptionSpec) journal.Record {
		return journal.Record{Op: journal.OpSubscribe, User: spec.User, SubID: id, Subscription: serve.ToJournalSubscription(spec)}
	}
	gen := writeLegacyJournal(t, dir, [][]journal.Record{
		{covered[0], covered[1], setRecord("alice", 1), insert, setRecord("bob", 2), subscribe("sub-a", subA), rule, assert},
		{covered[0], covered[1], insert, setRecord("carol", 3), rule, subscribe("sub-c", subC), assert,
			setRecord("dave", 4), {Op: journal.OpDrop, User: "dave"}},
	})
	// Each WAL's first two records (Seq 1 and 2) are in the snapshot.
	writeJSON(t, filepath.Join(dir, manifestName), manifest{
		Version: manifestVersion, Files: 2, Save: save,
		JournalGen: gen, CheckpointSeqs: []uint64{2, 2}, CheckpointBID: 2,
	})

	build, err := RestoreBuilder(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(1, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryStats{
		Files: 2, Records: 17, Users: 3, Drops: 1, Asserts: 1, RuleAdds: 1, Execs: 1,
		SkippedCheckpoint: 4, SkippedDuplicate: 3, Subscribes: 2,
	}
	if rs != want {
		t.Fatalf("recovery stats\n got %+v\nwant %+v", rs, want)
	}

	// The reference: a fresh System that saw every write once.
	ref := newTestCoordinator(t)
	for _, rec := range append(covered, insert, rule, assert) {
		if _, err := ref.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range []string{"alice", "bob", "carol"} {
		if _, err := ref.SetSession(u, sessionFor(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for id, spec := range map[string]serve.SubscriptionSpec{"sub-a": subA, "sub-c": subC} {
		if _, err := ref.Subscribe(id, spec); err != nil {
			t.Fatal(err)
		}
	}

	check := func(label string, c *Coordinator) {
		t.Helper()
		if got := tableRows(t, c); got != 2 {
			t.Fatalf("%s: ckpt_t holds %d rows, want 2 (each INSERT once)", label, got)
		}
		if got := len(c.Rules()); got != 2 {
			t.Fatalf("%s: %d rules, want R1 and R2", label, got)
		}
		if _, _, ok := c.SessionInfo("dave"); ok {
			t.Fatalf("%s: dropped session resurrected", label)
		}
		for _, u := range []string{"alice", "bob", "carol"} {
			_, fp, ok := c.SessionInfo(u)
			_, wantFP, _ := ref.SessionInfo(u)
			if !ok || fp != wantFP {
				t.Fatalf("%s: session %s = (%q, %v), want %q", label, u, fp, ok, wantFP)
			}
			if got, want := rankScores(t, c, u), rankScores(t, ref, u); got != want {
				t.Fatalf("%s: scores for %s\n got %s\nwant %s", label, u, got, want)
			}
		}
		if got := len(c.Subscriptions()); got != 2 {
			t.Fatalf("%s: %d subscriptions, want 2", label, got)
		}
		for _, id := range []string{"sub-a", "sub-c"} {
			if got, want := streamScores(t, c, id), streamScores(t, ref, id); got != want {
				t.Fatalf("%s: subscription %s snapshot\n got %s\nwant %s", label, id, got, want)
			}
		}
	}
	check("legacy boot", c)

	// One checkpoint rewrites the directory in the one-file layout.
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	c.CloseJournals()
	for pattern, n := range map[string]int{"shard-*.snapshot.json": 1, "sessions-*.wal": 1} {
		if got, _ := filepath.Glob(filepath.Join(dir, pattern)); len(got) != n {
			t.Fatalf("after checkpoint: %d files match %s, want %d", len(got), pattern, n)
		}
	}
	build, err = RestoreBuilder(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(1, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err = d.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.CloseJournals()
	if rs.Files != 1 || rs.VocabApplied() != 0 || rs.SkippedDuplicate != 0 || rs.Failed != 0 {
		t.Fatalf("one-file recovery stats %+v", rs)
	}
	check("one-file boot", d)
}
