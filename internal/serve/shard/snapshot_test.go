package shard

import (
	"os"
	"path/filepath"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
)

// TestSnapshotRoundTrip saves a loaded coordinator and restores it,
// checking that vocabulary, data and rules survive and that sessions
// (deliberately) do not.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t)
	if _, err := c.SetSession("peter", []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if !HasSnapshots(dir) {
		t.Fatal("HasSnapshots = false after save")
	}
	if n := countShardFiles(t, dir); n != 1 {
		t.Fatalf("found %d snapshot files, want 1", n)
	}
	// A second save supersedes the first generation atomically (manifest
	// swap) and garbage-collects its file.
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if n := countShardFiles(t, dir); n != 1 {
		t.Fatalf("stale generation not cleaned up: %d snapshot files, want 1", n)
	}

	build, err := RestoreBuilder(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := New(1, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rules := rc.Rules()
	if len(rules) != 1 || rules[0].Name != "R1" {
		t.Fatalf("restored rules = %+v", rules)
	}
	res, err := rc.Query("SELECT id FROM c_TvProgram ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("restore holds %d rows, want 2", len(res.Rows))
	}
	// Sessions are never persisted: context is sensed fresh (§5).
	if _, _, ok := rc.SessionInfo("peter"); ok {
		t.Fatal("restore resurrected a session")
	}
	// The restored stack must serve session applies and ranks.
	if _, err := rc.SetSession("peter", []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	ranked, _, err := rc.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || ranked[0].ID != "Oprah" {
		t.Fatalf("restore ranked %v, want Oprah first", ranked)
	}
}

func countShardFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestRestoreBuilderRejectsBadManifests(t *testing.T) {
	if HasSnapshots(t.TempDir()) {
		t.Fatal("empty dir claims snapshots")
	}
	if _, err := RestoreBuilder(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":99,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreBuilder(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"shards":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreBuilder(dir); err == nil {
		t.Fatal("zero-shard manifest accepted")
	}
}

// TestNewRejectsNonPositiveShardCounts: New builds exactly one engine;
// zero, negative and multi-shard counts are errors.
func TestNewRejectsNonPositiveShardCounts(t *testing.T) {
	for _, n := range []int{0, -1, 2} {
		if _, err := New(n, freshSystems, serve.Options{}); err == nil {
			t.Fatalf("New(%d) accepted", n)
		}
	}
}
