package shard

import (
	"fmt"
	"sync"
	"testing"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// freshSystems is the trivial build function: the engine starts empty.
func freshSystems(int) (*contextrank.System, error) {
	return contextrank.NewSystem(), nil
}

// newTestCoordinator builds a coordinator loaded with the worked-example
// vocabulary, data and one rule, so any user can rank TvProgram.
func newTestCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c, err := New(1, freshSystems, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Declare([]string{"TvProgram", "Weekend"}, []string{"hasGenre"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert([]serve.ConceptAssertion{
		{Concept: "TvProgram", ID: "Oprah", Prob: 1},
		{Concept: "TvProgram", ID: "BBCNews", Prob: 1},
	}, []serve.RoleAssertion{
		{Role: "hasGenre", Src: "Oprah", Dst: "HUMAN-INTEREST", Prob: 0.85},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddRules([]string{
		"RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8",
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStatsAggregation: the coordinator's Stats is the engine's snapshot
// plus the durability counters only the coordinator knows — checkpoint
// activity and the boot recovery outcome.
func TestStatsAggregation(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t)
	if st := c.Stats(); st.Checkpoints != nil || st.Recovery != nil {
		t.Fatalf("durability counters before Recover: checkpoints %+v, recovery %+v", st.Checkpoints, st.Recovery)
	}
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	users := []string{"a", "b", "c"}
	for _, u := range users {
		if _, err := c.SetSession(u, []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.checkpointTimed(dir, func(err error) { t.Fatal(err) })

	st, own := c.Stats(), c.Server.Stats()
	if st.Sessions != len(users) || st.Requests != int64(len(users)) || st.Rules != 1 {
		t.Fatalf("stats %d sessions / %d requests / %d rules, want %d / %d / 1",
			st.Sessions, st.Requests, st.Rules, len(users), len(users))
	}
	if st.Sessions != own.Sessions || st.Epoch != own.Epoch || st.Journal == nil {
		t.Fatalf("coordinator stats do not carry the engine's: %+v vs %+v", st, own)
	}
	if st.Recovery == nil || st.Recovery.Records != 0 {
		t.Fatalf("recovery stats %+v, want an empty boot", st.Recovery)
	}
	if st.Checkpoints == nil || st.Checkpoints.Count != 1 || st.Checkpoints.LastUnix == 0 {
		t.Fatalf("checkpoint stats %+v, want one completed checkpoint", st.Checkpoints)
	}
	if st.Health == nil || st.Health.State != serve.StateHealthy {
		t.Fatalf("health %+v, want healthy", st.Health)
	}
}

// TestShardSoakConcurrentAppliesAndRanks is the -race soak: concurrent
// session applies and ranks, vocabulary writes and checkpoints on one
// journaled engine must neither race nor deadlock, and the engine must
// keep its rule set and every write afterwards.
func TestShardSoakConcurrentAppliesAndRanks(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	workers, iters := 8, 60
	if testing.Short() {
		workers, iters = 4, 20
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("soak-user-%d", w)
			for i := 0; i < iters; i++ {
				prob := 0.5 + 0.5*float64(i%2) // alternate certain/uncertain
				if _, err := c.SetSession(user, []serve.Measurement{{Concept: "Weekend", Prob: prob}}); err != nil {
					errc <- fmt.Errorf("worker %d set: %w", w, err)
					return
				}
				if _, _, err := c.Rank(user, "TvProgram", contextrank.RankOptions{Limit: 5}); err != nil {
					errc <- fmt.Errorf("worker %d rank: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			a := []serve.RoleAssertion{{Role: "hasGenre", Src: "Oprah", Dst: fmt.Sprintf("soakgenre%d", i), Prob: 0.9}}
			if _, err := c.Assert(nil, a); err != nil {
				errc <- fmt.Errorf("assert: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := c.Checkpoint(dir); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := len(c.Rules()); got != 1 {
		t.Fatalf("rules = %d after soak, want 1", got)
	}
	res, err := c.Query("SELECT src FROM r_hasGenre")
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + iters/2; len(res.Rows) != want {
		t.Fatalf("hasGenre holds %d rows after soak, want %d", len(res.Rows), want)
	}
}

// TestRankFaultSurfacesWithoutQuarantine: a rank.serve fault fails the
// request it hits and nothing else — the server stays healthy and the
// next rank succeeds.
func TestRankFaultSurfacesWithoutQuarantine(t *testing.T) {
	c := newTestCoordinator(t)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	if err := in.Arm(faultinject.Fault{Point: faultinject.RankServe, Err: "EIO", Count: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Rank("peter", "TvProgram", contextrank.RankOptions{}); err == nil {
		t.Fatal("armed rank fault did not fire")
	}
	if _, _, err := c.RankBatch("peter", "", []serve.RankItem{{Target: "TvProgram"}}); err == nil {
		t.Fatal("armed rank fault did not fire on the batch path")
	}
	if st := c.Stats(); st.Health.State != serve.StateHealthy {
		t.Fatalf("read fault changed health: %+v", st.Health)
	}
	if _, _, err := c.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatalf("rank after fault exhausted: %v", err)
	}
}
