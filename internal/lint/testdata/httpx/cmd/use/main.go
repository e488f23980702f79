// Command use references every exported internal/ function of this
// fixture that nothing else calls, so the unreached analyzer stays quiet
// and the fixture pins only its own analyzer.
package main

import (
	"example.com/fix/internal/dist"
	"example.com/fix/internal/serve"
)

func main() {
	_ = []any{(*dist.Worker).Run, serve.Fetch, serve.Direct}
}
