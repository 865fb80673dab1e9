// Names kept only because bench/ (its own module, frozen by BENCHMARK.json)
// compiles against them; nothing else may call them. The PR that next edits
// bench/ deletes this file together with the fields that must sit in their
// structs: Options.DefaultMaxAttempts, Options.Backoff (server.go) and
// JobRequest.ReplayWorkers (api.go, which v1 clients may also still send).

package serve

// Backoff is empty and does nothing.
//
// Deprecated: a job is one run, so there is no retry delay to schedule.
type Backoff struct{}
