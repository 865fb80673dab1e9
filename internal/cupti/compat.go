// Names kept only because bench/ (its own module, frozen by BENCHMARK.json)
// compiles against them; nothing else may call them. The PR that next edits
// bench/ deletes this file.

package cupti

// SetWorkers does nothing.
//
// Deprecated: each launch is simulated once, so there is no replay worker
// pool to size.
func (s *Session) SetWorkers(int) {}
