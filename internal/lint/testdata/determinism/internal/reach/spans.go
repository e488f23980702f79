// Wall-clock laundering through the tracing layer: trace.Start and
// Event.End take caller-owned instants (the trace package never reads a
// clock), so the only way an engine stamps spans with wall time is by
// passing time.Now at the call site — where the analyzer still sees the
// reference.
package reach

import (
	"time"

	"example.com/fix/internal/trace"
)

// TracedExplore tries to smuggle the wall clock into an engine through the
// span seam. Both references are flagged even though the engine never
// reads the clock value itself.
func TracedExplore(budget int) int {
	ev := trace.Start(time.Now(), "reach.explore") // want `time\.Now in engine package reach`
	defer func() { ev.End(time.Now()) }()          // want `time\.Now in engine package reach`
	return Explore(budget)
}
