package check

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gputopdown/internal/gpu"
	"gputopdown/internal/serve"
	"gputopdown/internal/workloads"
)

// DynamicID is the corpus's one app outside every suite, which suite averages
// therefore do not count: the 100-invocation srad of Figs. 11-12.
const DynamicID = "altis/srad_dynamic"

// CorpusIDs returns the suite/app id of every app of the golden corpus: each
// suite's apps in suite order, then DynamicID. The corpus holds one
// canonical report of each on every evaluation GPU (gpu.IDs), at CorpusPath;
// cmd/goldengen writes it and bench/ reads it too.
func CorpusIDs() []string {
	var ids []string
	for _, s := range workloads.Suites() {
		for _, a := range workloads.BySuite(s) {
			ids = append(ids, a.ID())
		}
	}
	return append(ids, DynamicID)
}

// CorpusSample is the part of the corpus the golden tests re-profile on every
// run: one app per suite spanning both metric paths, cheap enough for tier-1.
// With GOLDEN_FULL=1 they re-profile every CorpusIDs app.
var CorpusSample = map[string][]string{
	"gtx1070": {"rodinia/bfs", "shoc/triad"},
	"rtx4000": {"altis/gups", "cudasamples/binaryPartitionCG_tile8"},
}

// CorpusPath returns <dir>/<gpu>/<suite>__<app>.json for the app with
// suite/app id.
func CorpusPath(dir, gpuID, id string) string {
	suite, app, _ := strings.Cut(id, "/")
	return filepath.Join(dir, gpuID, suite+"__"+app+".json")
}

// Corpus is the golden corpus decoded: canonical reports keyed "gpu/suite",
// each suite in its registered app order, and "gpu/" + DynamicID.
type Corpus map[string][]*serve.Report

// Reports returns one suite's reports on one GPU, or given DynamicID its one
// report (internal/paper's Source).
func (c Corpus) Reports(gpuID, suite string) []*serve.Report { return c[gpuID+"/"+suite] }

// LoadCorpus decodes the corpus cmd/goldengen writes under dir.
func LoadCorpus(dir string) (Corpus, error) {
	c := Corpus{}
	for _, g := range gpu.IDs() {
		for _, id := range CorpusIDs() {
			r := new(serve.Report)
			b, err := os.ReadFile(CorpusPath(dir, g, id))
			if err == nil {
				err = json.Unmarshal(b, r)
			}
			if err != nil {
				return nil, fmt.Errorf("golden %s on %s: %w", id, g, err)
			}
			key := g + "/" + r.Suite
			if id == DynamicID {
				key = g + "/" + id
			}
			c[key] = append(c[key], r)
		}
	}
	return c, nil
}
