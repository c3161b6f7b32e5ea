package event

import "testing"

// FuzzEventParse: no input may panic the event-expression parser, and an
// accepted expression must survive a String round trip — re-parse, and
// print identically. Found inputs are committed under
// testdata/fuzz/FuzzEventParse and run as ordinary tests.
func FuzzEventParse(f *testing.F) {
	for _, seed := range []string{
		"(a ∨ b) ∧ ¬c",
		"NOT a AND b OR c",
		"!a & (b | ⊤)",
		"TRUE OR false",
		"ANDy AND ORin AND NOTa",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		e, err := Parse(in)
		if err != nil {
			return
		}
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q does not parse: %v", in, s, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("round trip of %q: %q re-parses as %q", in, s, got)
		}
	})
}
