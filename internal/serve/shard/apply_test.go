package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/mapping"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// TestUnanimousRejectionDoesNotQuarantine: a write every shard rejects
// the same way is bad client input — the replicas still agree — so it
// surfaces as an error and moves no shard toward quarantine.
func TestUnanimousRejectionDoesNotQuarantine(t *testing.T) {
	c := newTestCoordinator(t, 3)
	c.SetQuarantineAfter(2)
	for i := 0; i < 2; i++ {
		if _, _, err := c.AddRules([]string{"WHEN Nope PREFER AlsoNope WITH 0.5"}); err == nil {
			t.Fatalf("AddRules #%d accepted a rule over undeclared vocabulary", i)
		}
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined = %v after unanimous rejections, want none", q)
	}
	if st := c.Stats(); st.Health.Quarantines != 0 {
		t.Fatalf("quarantines = %d, want 0", st.Health.Quarantines)
	}
}

// prefixConcepts are the concepts the applied-prefix writes below touch.
var prefixConcepts = []string{"PrefixOK", "PrefixClash", "PrefixAfter"}

// vocabState renders what shard s holds of the applied-prefix writes:
// its sorted rule names and, per prefixConcepts entry, whether the
// concept is declared.
func vocabState(t *testing.T, s *serve.Server) string {
	t.Helper()
	var names []string
	for _, r := range s.Rules() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "rules=%v", names)
	if err := s.Facade().WithRead(func(sys *contextrank.System) error {
		for _, c := range prefixConcepts {
			fmt.Fprintf(&b, " %s=%v", c, sys.Loader().HasConcept(c))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// writePrefixes issues one AddRules and one Declare whose middle item
// fails, and checks the live result: the valid prefix is applied, the
// failed item and everything after it is not.
func writePrefixes(t *testing.T, c *Coordinator) string {
	t.Helper()
	// A table already named like the concept's backing table makes the
	// concept's declaration fail.
	if _, _, err := c.Exec(fmt.Sprintf("CREATE TABLE %s (x INT)", mapping.ConceptTable("PrefixClash"))); err != nil {
		t.Fatal(err)
	}
	added, _, err := c.AddRules([]string{
		"RULE PrefixRule WHEN Weekend PREFER TvProgram WITH 0.4",
		"RULE BadRule WHEN Weekend PREFER AlsoNope WITH 0.5",
		"RULE AfterRule WHEN Weekend PREFER TvProgram WITH 0.3",
	})
	if err == nil {
		t.Fatal("AddRules with an invalid rule succeeded")
	}
	if len(added) != 1 || added[0] != "PrefixRule" {
		t.Fatalf("added = %v, want [PrefixRule]", added)
	}
	if _, err := c.Declare(prefixConcepts, nil, nil); err == nil {
		t.Fatal("Declare of a clashing concept succeeded")
	}
	live := vocabState(t, c.Shard(0))
	for _, want := range []string{"PrefixRule", "PrefixOK=true", "PrefixClash=false", "PrefixAfter=false"} {
		if !strings.Contains(live, want) {
			t.Fatalf("live state %q lacks %q", live, want)
		}
	}
	for _, absent := range []string{"BadRule", "AfterRule"} {
		if strings.Contains(live, absent) {
			t.Fatalf("live state %q holds %q", live, absent)
		}
	}
	return live
}

// TestAppliedPrefixSurvivesRecover: the WAL holds exactly the applied
// prefix of a partly failed write, so a crash and recovery land on the
// live state and no replayed record fails.
func TestAppliedPrefixSurvivesRecover(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 3)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	live := writePrefixes(t, a)

	// Crash: no CloseJournals, no checkpoint.
	b := newTestCoordinator(t, 3)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.Failed != 0 || rs.Execs != 1 || rs.RuleAdds != 1 || rs.Declares != 1 {
		t.Fatalf("recovery stats %+v", rs)
	}
	for i := 0; i < b.N(); i++ {
		if got := vocabState(t, b.Shard(i)); got != live {
			t.Fatalf("recovered shard %d: %q, live %q", i, got, live)
		}
	}
}

// TestAppliedPrefixSurvivesRepair: a shard quarantined while partly
// failed writes land is repaired from a healthy WAL to the live state.
func TestAppliedPrefixSurvivesRepair(t *testing.T) {
	c := newTestCoordinator(t, 3)
	if _, err := c.Recover(t.TempDir(), journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()

	const bad = 1
	c.SetQuarantineAfter(1)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	shardSel := bad
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &shardSel, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Declare([]string{"Fenced"}, nil, nil); err != nil {
		t.Fatalf("threshold-crossing broadcast should absorb the error, got %v", err)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != bad {
		t.Fatalf("quarantined = %v, want [%d]", q, bad)
	}
	live := writePrefixes(t, c)

	in.Clear()
	if err := c.RepairShard(bad); err != nil {
		t.Fatal(err)
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after repair: %v", q)
	}
	if got := vocabState(t, c.Shard(bad)); got != live {
		t.Fatalf("repaired shard: %q, live %q", got, live)
	}
	if skipped := c.quar.repairSkipped.Load(); skipped != 0 {
		t.Fatalf("repair skipped %d records, want 0", skipped)
	}
}
