package check

import (
	"strings"
	"testing"
)

// TestLoadCorpus decodes the committed corpus in suite order and names the
// first file it cannot read.
func TestLoadCorpus(t *testing.T) {
	c, err := LoadCorpus("testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	rod := c.Reports("rtx4000", "rodinia")
	if len(rod) != 20 || rod[0].App != "backprop" || rod[19].App != "streamcluster" {
		t.Errorf("rtx4000/rodinia: %d reports, want 20 from backprop to streamcluster", len(rod))
	}
	if dyn := c.Reports("rtx4000", DynamicID); len(dyn) != 1 || dyn[0].App != "srad_dynamic" {
		t.Errorf("rtx4000/%s: %d reports, want the srad dynamic run alone", DynamicID, len(dyn))
	}
	for _, r := range c.Reports("rtx4000", "altis") {
		if r.App == "srad_dynamic" {
			t.Error("the altis suite holds the srad dynamic run")
		}
	}
	if _, err := LoadCorpus(t.TempDir()); err == nil || !strings.Contains(err.Error(), "golden rodinia/backprop on gtx1070") {
		t.Errorf("empty dir: err = %v", err)
	}
}
