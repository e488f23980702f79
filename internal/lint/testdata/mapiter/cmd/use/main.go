// Command use references every exported internal/ function of this
// fixture that nothing else calls, so the unreached analyzer stays quiet
// and the fixture pins only its own analyzer.
package main

import (
	"example.com/fix/internal/core"
	"example.com/fix/internal/dist"
)

func main() {
	_ = []any{
		core.SortedKeys, core.SortedValues, core.UnsortedKeys, core.SendKeys, core.JoinKeys,
		core.Count, core.Invert, dist.Progress, dist.Merge,
	}
}
