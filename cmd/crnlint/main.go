// Command crnlint runs the repository's static-analysis suite: the
// determinism, httpx, mapiter, and errwrap analyzers that machine-check
// the invariants behind the byte-identity guarantees, and the unreached
// analyzer that keeps internal/ free of functions nothing calls (see
// internal/lint).
//
// Usage:
//
//	go run ./cmd/crnlint ./...
//
// Exit status is 0 when the tree is clean, 1 on findings, 2 on usage or
// load errors. CI runs this alongside gofmt and go vet.
package main

import (
	"os"

	"crncompose/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
