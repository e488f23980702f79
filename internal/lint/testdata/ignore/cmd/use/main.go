// Command use references every exported internal/ function of this
// fixture that nothing else calls, so the unreached analyzer stays quiet
// and the fixture pins only its own analyzer.
package main

import "example.com/fix/internal/sim"

func main() {
	_ = []any{sim.Telemetry, sim.Above}
}
