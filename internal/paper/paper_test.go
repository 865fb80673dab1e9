package paper

import (
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/serve"
)

// TestPaperClaims checks §V's claims against the committed full-fidelity
// golden corpus: every row must hold, or keep measuring its documented
// deviation. It decodes reports and simulates nothing.
func TestPaperClaims(t *testing.T) {
	corpus, err := check.LoadCorpus("../check/testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range Claims {
		v := cl.Verdict(corpus.Reports)
		if v == "fails" {
			t.Errorf("%s: %q fails on the corpus", cl.Fig, cl.Sentence)
			continue
		}
		t.Logf("%s: %q: %s", cl.Fig, cl.Sentence, v)
	}
}

// TestClaimsFailWithoutReports guards the predicates against passing
// vacuously: with no reports every corpus-backed row must fail.
func TestClaimsFailWithoutReports(t *testing.T) {
	none := func(string, string) []*serve.Report { return nil }
	for _, cl := range Claims {
		if cl.Fig != "Table IX" && cl.Check(none) {
			t.Errorf("%s: %q holds without reports", cl.Fig, cl.Sentence)
		}
	}
}
