// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` neither builds nor runs it. The module
// path sits under gputopdown/, which is what lets it import
// gputopdown/internal/*.
module gputopdown/bench

go 1.22

require gputopdown v0.0.0

replace gputopdown => ../
