// Command prog is the fixture's one program.
package main

import (
	"fmt"
	"os"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: lib.Reached()}
	fmt.Println(s.Area(), lib.Sum(lib.Config{Set: len(os.Args), OneValue: 3}))
}
