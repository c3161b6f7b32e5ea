package event

import (
	"fmt"
	"math/rand"
	"testing"
)

// unionChangedSince is the reference answer BlocksChangedSince must
// match: the plain union of every key the retained history recorded
// after gen.
func unionChangedSince(s *Space, gen uint64, keys []string) (changed, ok bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if gen < s.changeFloor {
		return true, false
	}
	asked := make(map[string]bool, len(keys))
	for _, k := range keys {
		asked[k] = true
	}
	for _, c := range s.changes {
		if c.gen <= gen {
			continue
		}
		for _, k := range c.keys {
			if asked[k] {
				return true, true
			}
		}
	}
	return false, true
}

// TestBlocksChangedSinceMatchesHistoryUnion drives a space through a
// random mix of declares, exclusive groups, retires and group retires —
// long enough to trim the history more than once — and checks after every
// step that the indexed query agrees with the union over the recorded
// history, for random generations and key sets (including keys that
// never changed).
func TestBlocksChangedSinceMatchesHistoryUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSpace()
	var live, grouped []string
	seen := []string{"never-changed"}
	next := 0
	fresh := func() string {
		next++
		return fmt.Sprintf("e%d", next)
	}
	steps := 2*maxTrackedChanges + 500
	for step := 0; step < steps; step++ {
		if step%20 == 0 {
			// A merged context apply retires many events in one
			// generation; enough of them trim the history by its key bound.
			batch := make([]string, 1000)
			for i := range batch {
				batch[i] = fresh()
				if err := s.Declare(batch[i], 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Retire(batch...); err != nil {
				t.Fatal(err)
			}
			seen = append(seen, "b:"+batch[0], "b:"+batch[len(batch)-1])
		}
		switch op := rng.Intn(4); {
		case op == 0 || len(live)+len(grouped) == 0:
			n := fresh()
			if err := s.Declare(n, 0.5); err != nil {
				t.Fatal(err)
			}
			live = append(live, n)
		case op == 1:
			names := []string{fresh(), fresh()}
			if err := s.DeclareExclusive(names, []float64{0.3, 0.4}); err != nil {
				t.Fatal(err)
			}
			grouped = append(grouped, names...)
		case op == 2 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := s.Retire(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case len(grouped) > 0:
			i := rng.Intn(len(grouped))
			retired, err := s.RetireGroup(grouped[i])
			if err != nil {
				t.Fatal(err)
			}
			gone := make(map[string]bool, len(retired))
			for _, n := range retired {
				gone[n] = true
			}
			kept := grouped[:0]
			for _, n := range grouped {
				if !gone[n] {
					kept = append(kept, n)
				}
			}
			grouped = kept
		}
		if c := s.changes; len(c) > 0 {
			seen = append(seen, c[len(c)-1].keys...)
		}
		if step%23 != 0 {
			continue
		}
		cur := s.Generation()
		for q := 0; q < 4; q++ {
			gen := uint64(rng.Int63n(int64(cur) + 1))
			keys := make([]string, 1+rng.Intn(4))
			for i := range keys {
				keys[i] = seen[rng.Intn(len(seen))]
			}
			wantChanged, wantOK := unionChangedSince(s, gen, keys)
			changed, asOf, ok := s.BlocksChangedSince(gen, keys[:1], keys[1:])
			if changed != wantChanged || ok != wantOK || asOf != cur {
				t.Fatalf("step %d: BlocksChangedSince(%d, %v) = (%v, %d, %v), history union says (%v, %d, %v)",
					step, gen, keys, changed, asOf, ok, wantChanged, cur, wantOK)
			}
		}
	}
	if s.changeFloor == 0 {
		t.Fatal("history never trimmed; the test did not exercise trimming")
	}
	if s.changeKeys > maxTrackedKeys || len(s.changes) > maxTrackedChanges {
		t.Fatalf("history holds %d generations / %d keys, bounds are %d / %d",
			len(s.changes), s.changeKeys, maxTrackedChanges, maxTrackedKeys)
	}
	if n, limit := len(s.lastChanged), 0; n > 0 {
		for _, c := range s.changes {
			limit += len(c.keys)
		}
		if n > limit {
			t.Fatalf("index holds %d keys, the retained history only %d", n, limit)
		}
	}
}

// TestBlocksChangedSinceOversizedGeneration: one invalidation recording
// more keys than the history's key bound is kept (not trimmed away), so
// a plan compiled just before it still sees the change.
func TestBlocksChangedSinceOversizedGeneration(t *testing.T) {
	s := NewSpace()
	if err := s.Declare("doc", 0.5); err != nil {
		t.Fatal(err)
	}
	names := make([]string, maxTrackedKeys+1)
	for i := range names {
		names[i] = fmt.Sprintf("ctx%d", i)
		if err := s.Declare(names[i], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Generation()
	if err := s.Retire(names...); err != nil {
		t.Fatal(err)
	}
	changed, _, ok := s.BlocksChangedSince(before, []string{"b:" + names[7]})
	if !ok || !changed {
		t.Fatalf("retired key after an oversized generation: changed=%v ok=%v, want true true", changed, ok)
	}
	if changed, _, ok := s.BlocksChangedSince(before, []string{"b:doc"}); !ok || changed {
		t.Fatalf("untouched key: changed=%v ok=%v, want false true", changed, ok)
	}
}
