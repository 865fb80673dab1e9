package check

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gputopdown/internal/gpu"
	"gputopdown/internal/serve"
	"gputopdown/internal/workloads"
)

// Corpus is the golden corpus decoded: canonical reports keyed "gpu/suite",
// each suite in its registered app order.
type Corpus map[string][]*serve.Report

// Reports returns one suite's reports on one GPU (internal/paper's Source).
func (c Corpus) Reports(gpuID, suite string) []*serve.Report { return c[gpuID+"/"+suite] }

// LoadCorpus decodes the corpus cmd/goldengen writes under dir: one report
// per suite app per evaluation GPU, at dir/<gpu>/<suite>__<app>.json.
func LoadCorpus(dir string) (Corpus, error) {
	c := Corpus{}
	for _, g := range gpu.IDs() {
		for _, s := range workloads.Suites() {
			for _, a := range workloads.BySuite(s) {
				r := new(serve.Report)
				b, err := os.ReadFile(filepath.Join(dir, g, s+"__"+a.Name+".json"))
				if err == nil {
					err = json.Unmarshal(b, r)
				}
				if err != nil {
					return nil, fmt.Errorf("golden %s/%s on %s: %w", s, a.Name, g, err)
				}
				c[g+"/"+s] = append(c[g+"/"+s], r)
			}
		}
	}
	return c, nil
}
