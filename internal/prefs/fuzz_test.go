package prefs

import (
	"testing"

	"repro/internal/dl"
)

// TestParseRuleInvalidUTF8NoPanic: keyword offsets once came from the
// upper-cased input, whose byte length differs from the original's for
// invalid UTF-8, and this input indexed past the end of the string.
func TestParseRuleInvalidUTF8NoPanic(t *testing.T) {
	if _, err := ParseRule("WHEN PREFER \xc7\xd1\xc4WITH"); err == nil {
		t.Fatal("ParseRule accepted a rule with no context, preference or σ")
	}
}

// TestParseRuleUnicodeCaseMapping: "ı" and "ſ" upper-case to the one-byte
// "I" and "S", which shifted every later keyword offset and rejected
// valid rules as "missing PREFER".
func TestParseRuleUnicodeCaseMapping(t *testing.T) {
	for _, tc := range []struct{ in, ctx, pref string }{
		{"WHEN ıKitchen PREFER TvProgram WITH 0.5", "ıKitchen", "TvProgram"},
		{"WHEN ſtudio PREFER ſhow WITH 0.5", "ſtudio", "ſhow"},
		{"when Weekend prefer ſhow with 0.5", "Weekend", "ſhow"},
	} {
		r, err := ParseRule(tc.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.in, err)
			continue
		}
		if !dl.Equal(r.Context, dl.Atom(tc.ctx)) || !dl.Equal(r.Preference, dl.Atom(tc.pref)) || r.Sigma != 0.5 {
			t.Errorf("ParseRule(%q) = %+v", tc.in, r)
		}
	}
	if r, err := ParseRule("RULE ſR WHEN ıA PREFER B WITH 0.5"); err != nil || r.Name != "ſR" {
		t.Fatalf("named rule with non-ASCII name: %+v, %v", r, err)
	}
}

// TestParseRuleRejectsNaNSigma: "NaN" scans as a float and compares
// false against both bounds, so a range check written as two rejections
// let it through.
func TestParseRuleRejectsNaNSigma(t *testing.T) {
	if r, err := ParseRule("WHEN A PREFER B WITH NaN"); err == nil {
		t.Fatalf("ParseRule accepted σ = %g", r.Sigma)
	}
}

// TestParseRuleRejectsTrailingSigmaText: σ was scanned with %g, which
// stops at the end of the number, so trailing text after it was ignored
// ("1e-1x" even parsed as 0.1).
func TestParseRuleRejectsTrailingSigmaText(t *testing.T) {
	for _, in := range []string{
		"WHEN A PREFER B WITH 0.5 junk",
		"WHEN A PREFER B WITH 0.5junk",
		"WHEN A PREFER B WITH 1e-1x",
	} {
		if r, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) accepted σ = %g", in, r.Sigma)
		}
	}
	if r, err := ParseRule("WHEN A PREFER B WITH 1e-1 "); err != nil || r.Sigma != 0.1 {
		t.Fatalf("surrounding space around σ: %+v, %v", r, err)
	}
}

// FuzzParseRule: no input may panic the rule parser, and an accepted rule
// must survive a String round trip. Found inputs are committed under
// testdata/fuzz/FuzzParseRule and run as ordinary tests.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		ruleR1,
		ruleR2,
		"WHEN TOP PREFER Movie WITH 0.3",
		"WHEN Weekender PREFER Preferred WITH 0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		r, err := ParseRule(in)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("ParseRule(%q) accepted, but its String %q does not parse: %v", in, r.String(), err)
		}
		if !dl.Equal(back.Context, r.Context) || !dl.Equal(back.Preference, r.Preference) || back.Sigma != r.Sigma {
			t.Fatalf("round trip of %q: %+v != %+v", in, back, r)
		}
	})
}
