package trace_test

import (
	"fmt"

	"hybridstore/internal/storage"
	"hybridstore/internal/trace"
)

// ExampleAnalyze characterizes a toy trace along the §III dimensions.
func ExampleAnalyze() {
	ops := []storage.Op{
		{Kind: storage.OpRead, Offset: 0, Len: 512},
		{Kind: storage.OpRead, Offset: 512, Len: 512}, // sequential
		{Kind: storage.OpRead, Offset: 1 << 20, Len: 512},
		{Kind: storage.OpWrite, Offset: 0, Len: 512},
	}
	ch := trace.Analyze(ops)
	fmt.Printf("reads %.0f%%, sequential %.2f\n", 100*ch.ReadFraction, ch.SequentialFraction)
	// Output:
	// reads 75%, sequential 0.33
}
