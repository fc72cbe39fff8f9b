// Command wpinqlint machine-checks wpinq's hand-maintained invariants:
// deterministic iteration and randomness sources, transactional undo
// logging, pooled-buffer ownership, packed-key bounds, and HTTP error
// sinks. It is a `go vet -vettool` (build it, then `go vet
// -vettool=bin/wpinqlint ./...`); see internal/lint for the analyzer suite.
package main

import "wpinq/internal/lint"

func main() {
	lint.Main(lint.All())
}
