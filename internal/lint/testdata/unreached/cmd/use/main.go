// Command use calls into internal/quilt from another package.
package main

import (
	"fmt"

	"example.com/fix/internal/quilt"
)

func main() {
	f := quilt.Used()
	fmt.Println(f, f.Eval())
}
