package serve

import (
	"fmt"
	"math"
	"testing"

	contextrank "repro"
)

// newTestSystem builds a small TV system: ten programs over two genres and
// two context-dependent rules (CtxA prefers genre g0, CtxB genre g1).
func newTestSystem(t testing.TB) *contextrank.System {
	t.Helper()
	sys := contextrank.NewSystem()
	if err := sys.DeclareConcept("TvProgram"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeclareRole("hasGenre"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("tv%02d", i)
		if err := sys.AssertConcept("TvProgram", id, 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.AssertRole("hasGenre", id, fmt.Sprintf("g%d", i%2), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	for i, sigma := range []float64{0.8, 0.6} {
		rule := fmt.Sprintf("RULE r%d WHEN Ctx%c PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH %g",
			i, 'A'+rune(i), i, sigma)
		if _, err := sys.AddRule(rule); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func sameResults(t *testing.T, got, want []contextrank.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("result %d: got id %s, want %s", i, got[i].ID, want[i].ID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d (%s): got score %v, want %v", i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

// freshRank ranks target for user straight off the system under the
// facade read lock, bypassing the rank and plan caches: the uncached
// reference the cache-correctness tests compare against.
func freshRank(t testing.TB, srv *Server, user, target string) []contextrank.Result {
	t.Helper()
	var out []contextrank.Result
	err := srv.Facade().WithRead(func(sys *contextrank.System) error {
		var err error
		out, err = sys.RankWith(user, target, contextrank.RankOptions{})
		return err
	})
	if err != nil {
		t.Fatalf("fresh rank %s/%s: %v", user, target, err)
	}
	return out
}

// TestFacadeEpochDiscipline: each of the Server's five vocabulary writes
// bumps the facade epoch exactly once and reports the epoch it produced;
// reads bump nothing; a failed write still bumps (partial effects must
// invalidate).
func TestFacadeEpochDiscipline(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	f := srv.Facade()
	e0 := f.Epoch()

	// Read operations leave the epoch alone.
	if _, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.RankBatch("peter", "", []RankItem{{Candidates: []string{"tv01"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query("SELECT id FROM c_TvProgram"); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Rules()); got != 2 {
		t.Fatalf("rules = %d, want 2", got)
	}
	srv.SessionInfo("peter")
	srv.Stats()
	if f.Epoch() != e0 {
		t.Fatalf("reads bumped epoch: %d -> %d", e0, f.Epoch())
	}

	writes := []struct {
		name  string
		write func() (int64, error)
	}{
		{"declare", func() (int64, error) {
			return srv.Declare([]string{"Documentary"}, []string{"hasSubject"},
				[]SubConceptDecl{{Sub: "Documentary", Super: "TvProgram"}})
		}},
		{"assert", func() (int64, error) {
			return srv.Assert([]ConceptAssertion{{Concept: "Documentary", ID: "d1", Prob: 0.7}},
				[]RoleAssertion{{Role: "hasSubject", Src: "d1", Dst: "nature", Prob: 1}})
		}},
		{"add rules", func() (int64, error) {
			_, e, err := srv.AddRules([]string{"RULE r2 WHEN CtxC PREFER Documentary WITH 0.5"})
			return e, err
		}},
		{"exec", func() (int64, error) {
			_, e, err := srv.Exec("CREATE TABLE scratch (id TEXT)")
			return e, err
		}},
		{"remove rule", func() (int64, error) { return srv.RemoveRule("r2") }},
	}
	for _, w := range writes {
		before := f.Epoch()
		got, err := w.write()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if f.Epoch() != before+1 || got != before+1 {
			t.Fatalf("%s: epoch %d -> %d (reported %d), want +1", w.name, before, f.Epoch(), got)
		}
	}

	// A failing write still bumps (partial effects must invalidate).
	before := f.Epoch()
	if _, _, err := srv.AddRules([]string{"RULE bad WHEN CtxD PREFER Undeclared WITH 0.5"}); err == nil {
		t.Fatal("expected AddRules error")
	}
	if f.Epoch() != before+1 {
		t.Fatalf("failed write did not bump epoch")
	}
}

func TestFacadeRankMatchesSystem(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.SetContext(contextrank.NewContext("peter").Certain("CtxA")); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	got, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
	sameResults(t, freshRank(t, srv, "peter", "TvProgram"), want)
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	// Genre-g0 programs must outrank g1 under CtxA.
	if got[0].ID[len(got[0].ID)-1]%2 != 0 {
		t.Fatalf("top result %s is not a g0 program", got[0].ID)
	}
}
