package quo_test

import (
	"fmt"

	"repro/internal/quo"
)

// A contract written in the CDL-style text form, compiled, wired to a
// measured condition, and driven through its regions.
func ExampleParseContract() {
	contract, err := quo.ParseContract(`
		contract video every 500ms
		  region crisis   when loss > 0.25
		  region degraded when loss > 0.05
		  region normal
	`)
	if err != nil {
		panic(err)
	}
	loss := quo.NewMeasuredCond("loss", 0)
	contract.AddCondition(loss)

	for _, observed := range []float64{0.01, 0.10, 0.40, 0.02} {
		loss.Set(observed)
		fmt.Printf("loss=%.2f -> %s\n", observed, contract.Eval())
	}
	// Output:
	// loss=0.01 -> normal
	// loss=0.10 -> degraded
	// loss=0.40 -> crisis
	// loss=0.02 -> normal
}
