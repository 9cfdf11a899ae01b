// Command product is a binary that `go build` made, not `go test`, with a
// flag set of its own like the real ones: poison_test.go runs it to see
// what poison.On reports there.
package main

import (
	"flag"
	"fmt"

	"slimstore/internal/poison"
)

func main() {
	flag.Bool("v", false, "a product flag that is not test.v")
	flag.Parse()
	fmt.Print(poison.On())
}
