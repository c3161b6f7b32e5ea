package shard

import (
	"os"
	"path/filepath"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
)

// TestSnapshotRoundTrip saves a loaded coordinator and restores it at the
// same and at a different shard count, checking that vocabulary, data and
// rules survive on every shard and that sessions (deliberately) do not.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, 2)
	if _, err := c.SetSession("peter", []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if !HasSnapshots(dir) {
		t.Fatal("HasSnapshots = false after save")
	}
	if n := countShardFiles(t, dir); n != 2 {
		t.Fatalf("found %d shard snapshot files, want 2", n)
	}
	// A second save supersedes the first generation atomically (manifest
	// swap) and garbage-collects its files.
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if n := countShardFiles(t, dir); n != 2 {
		t.Fatalf("stale generation not cleaned up: %d shard files, want 2", n)
	}

	for _, n := range []int{2, 4, 1} {
		build, saved, err := RestoreBuilder(dir)
		if err != nil {
			t.Fatal(err)
		}
		if saved != 2 {
			t.Fatalf("manifest reports %d saved shards, want 2", saved)
		}
		rc, err := New(n, build, serve.Options{})
		if err != nil {
			t.Fatalf("restore at %d shards: %v", n, err)
		}
		for i := 0; i < rc.N(); i++ {
			s := rc.Shard(i)
			rules := s.Rules()
			if len(rules) != 1 || rules[0].Name != "R1" {
				t.Fatalf("restore@%d shard %d rules = %+v", n, i, rules)
			}
			res, err := s.Query("SELECT id FROM c_TvProgram ORDER BY id")
			if err != nil {
				t.Fatalf("restore@%d shard %d: %v", n, i, err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("restore@%d shard %d holds %d rows, want 2", n, i, len(res.Rows))
			}
		}
		// Sessions are never persisted: context is sensed fresh (§5).
		if _, _, ok := rc.SessionInfo("peter"); ok {
			t.Fatalf("restore@%d resurrected a session", n)
		}
		// The restored stack must serve session applies and ranks.
		if _, err := rc.SetSession("peter", []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
			t.Fatalf("restore@%d: %v", n, err)
		}
		res, _, err := rc.Rank("peter", "TvProgram", contextrank.RankOptions{})
		if err != nil {
			t.Fatalf("restore@%d: %v", n, err)
		}
		if len(res) == 0 || res[0].ID != "Oprah" {
			t.Fatalf("restore@%d ranked %v, want Oprah first", n, res)
		}
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
	if _, _, err := RestoreBuilder(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":99,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreBuilder(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"shards":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreBuilder(dir); err == nil {
		t.Fatal("zero-shard manifest accepted")
	}
}

func TestNewRejectsNonPositiveShardCounts(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(n, freshSystems, serve.Options{}); err == nil {
			t.Fatalf("New(%d) accepted", n)
		}
	}
}
