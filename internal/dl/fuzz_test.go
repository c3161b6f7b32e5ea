package dl

import "testing"

// FuzzDLParse: dl.Parse reads every rank and subscription target that
// arrives over HTTP, so no input may panic it, and an accepted expression
// must survive a String round trip — re-parse, and print identically.
// Found inputs are committed under testdata/fuzz/FuzzDLParse and run as
// ordinary tests.
func FuzzDLParse(f *testing.F) {
	for _, seed := range []string{
		"TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}",
		"EXISTS locatedIn.(Room AND EXISTS partOf.{Home})",
		"NOT (A OR B) AND TOP",
		"{alice, bob} OR BOTTOM",
		"a and not b or exists r.top",
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
