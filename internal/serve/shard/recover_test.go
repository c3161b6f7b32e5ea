package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// sessionFor builds a distinct Weekend-membership context per user index,
// so restored fingerprints and rank scores are user-specific.
func sessionFor(i int) []serve.Measurement {
	return []serve.Measurement{{Concept: "Weekend", Prob: 0.5 + float64(i%5)/10}}
}

// rankScores snapshots a user's full ranking for bit-identity comparison.
func rankScores(t *testing.T, c *Coordinator, user string) string {
	t.Helper()
	res, _, err := c.Rank(user, "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
	}
	return sb.String()
}

// TestRecoverSessionsAfterCrash is the kill -9 scenario at the unit level:
// journaled sessions, no clean shutdown (journals deliberately left
// un-Closed — durability must come from the per-batch fsync), then a new
// coordinator over the same durable data replays the WAL and serves
// bit-identical fingerprints and rank scores. The since-dropped user must
// not be resurrected.
func TestRecoverSessionsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}

	const users = 12
	fps := make(map[string]string)
	scores := make(map[string]string)
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		fp, err := a.SetSession(u, sessionFor(i))
		if err != nil {
			t.Fatal(err)
		}
		fps[u] = fp
	}
	// One user churns and leaves: the stale Set records must not
	// resurrect the session on recovery.
	if _, err := a.SetSession("ghost", sessionFor(3)); err != nil {
		t.Fatal(err)
	}
	if err := a.DropSession("ghost"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		scores[u] = rankScores(t, a, u)
	}
	preCount := a.Stats().Sessions

	// Crash: no CloseJournals, no snapshot. The same durable data is
	// rebuilt from scratch (in carserved this is the snapshot restore or
	// the deterministic preload).
	b := newTestCoordinator(t)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.Records != users+2 { // users Sets + ghost Set + ghost Drop
		t.Fatalf("replayed %d records, want %d (stats %+v)", rs.Records, users+2, rs)
	}
	if rs.Drops != 1 || rs.Failed != 0 || rs.FingerprintMismatches != 0 {
		t.Fatalf("recovery stats %+v", rs)
	}
	if rs.Users != preCount {
		t.Fatalf("recovered %d users, pre-crash count was %d", rs.Users, preCount)
	}
	if got := b.Stats().Sessions; got != preCount {
		t.Fatalf("post-recovery session count = %d, want %d", got, preCount)
	}
	if _, _, ok := b.SessionInfo("ghost"); ok {
		t.Fatal("dropped user resurrected by replay")
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		_, fp, ok := b.SessionInfo(u)
		if !ok {
			t.Fatalf("session for %s did not survive the crash", u)
		}
		if fp != fps[u] {
			t.Fatalf("fingerprint for %s changed across recovery: %s -> %s", u, fps[u], fp)
		}
		if got := rankScores(t, b, u); got != scores[u] {
			t.Fatalf("rank scores for %s changed across recovery:\n pre: %s\npost: %s", u, scores[u], got)
		}
	}

	// The old generation was superseded: only the new manifest's files
	// remain, and a third boot replays from the rewritten generation.
	c := newTestCoordinator(t)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if got := c.Stats().Sessions; got != preCount {
		t.Fatalf("second recovery: session count = %d, want %d", got, preCount)
	}
}

// TestRecoverSessionsTornTail: a crash mid group commit leaves a torn
// frame; recovery replays the valid prefix and reports the tear.
func TestRecoverSessionsTornTail(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.SetSession(fmt.Sprintf("user%03d", i), sessionFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the WAL: chop trailing bytes off the last frame.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("tore %d files, want 1", torn)
	}

	b := newTestCoordinator(t)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.TornFiles != 1 {
		t.Fatalf("torn tail not reported: %+v", rs)
	}
	if rs.Records != 3 || rs.Users != 3 {
		t.Fatalf("recovered %d records / %d users from torn journal, want 3/3", rs.Records, rs.Users)
	}
	if _, _, ok := b.SessionInfo("user003"); ok {
		t.Fatal("the torn record's session came back")
	}
}

// TestRecoverSessionsPreservesFailedRecords: records whose re-apply
// errors (here: the restored system holds foreign data in the session's
// context concept, tripping the foreign-data guard) must be carried into
// the new journal generation, not destroyed by the stale-file cleanup —
// once the conflict is gone, a later boot recovers the sessions.
func TestRecoverSessionsPreservesFailedRecords(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	fps := make(map[string]string)
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("user%03d", i)
		fp, err := a.SetSession(u, sessionFor(i))
		if err != nil {
			t.Fatal(err)
		}
		fps[u] = fp
	}

	// Crash, then boot over a system where Weekend holds a data
	// assertion: the session layer refuses to clear foreign rows, so
	// every replayed Set fails — and must be preserved, not dropped.
	poisoned := newTestCoordinator(t)
	if _, err := poisoned.Assert([]serve.ConceptAssertion{{Concept: "Weekend", ID: "somebody", Prob: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	rs, err := poisoned.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisoned.CloseJournals()
	if rs.Failed != 6 || rs.Users != 0 {
		t.Fatalf("poisoned recovery stats %+v, want 6 failed / 0 users", rs)
	}

	// Third boot without the conflicting data: the preserved records
	// replay successfully from the poisoned boot's generation.
	c := newTestCoordinator(t)
	rs, err = c.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if rs.Failed != 0 || rs.Users != 6 {
		t.Fatalf("healed recovery stats %+v, want 0 failed / 6 users", rs)
	}
	for u, want := range fps {
		_, fp, ok := c.SessionInfo(u)
		if !ok || fp != want {
			t.Fatalf("session for %s after heal = (%q, %v), want %q", u, fp, ok, want)
		}
	}
}

// TestRecoverSessionsBadFile: a previous-generation file with an
// overwritten header is unsalvageable, but it must not brick the boot —
// the generation's other files still replay. The two-file generation is
// the layout an N-shard daemon wrote.
func TestRecoverSessionsBadFile(t *testing.T) {
	dir := t.TempDir()
	gen := writeLegacyJournal(t, dir, [][]journal.Record{
		{setRecord("user000", 0), setRecord("user001", 1)},
		{setRecord("user002", 2), setRecord("user003", 3)},
	})
	f, err := os.OpenFile(journalFile(dir, gen, 1), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := newTestCoordinator(t)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatalf("one bad file aborted recovery: %v", err)
	}
	defer b.CloseJournals()
	if rs.BadFiles != 1 || rs.Files != 1 {
		t.Fatalf("BadFiles = %d, Files = %d, want 1 and 1 (stats %+v)", rs.BadFiles, rs.Files, rs)
	}
	// The intact file's sessions came back; the clobbered file's are
	// gone (and that is the honest outcome — nothing was salvageable).
	for u, want := range map[string]bool{"user000": true, "user001": true, "user002": false, "user003": false} {
		if _, _, ok := b.SessionInfo(u); ok != want {
			t.Fatalf("session %s restored = %v, want %v", u, ok, want)
		}
	}
}

// TestCloseJournalsFailsLateSets: after CloseJournals a session update
// must fail loudly — the update stays applied in memory but the caller
// gets no acknowledgement, so there is no silent durability gap.
func TestCloseJournalsFailsLateSets(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetSession("early", sessionFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetSession("late", sessionFor(1)); err == nil {
		t.Fatal("session update after CloseJournals succeeded silently")
	}
}
