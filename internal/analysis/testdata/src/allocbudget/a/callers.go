package a

import (
	"slices"

	"hybridstore/internal/analysis/testdata/src/allocbudget/b"
)

// Grows instantiates slices.Grow, whose body the compiler reports in
// $GOROOT/src/slices/slices.go — a file this package has no namesake of.
// The inlined copy's two escapes are reported here, at the call.
func Grows(s []int, n int) []int {
	return slices.Grow(s, n)
}

// Boxes instantiates b.Box, whose body is reported in b/helper.go.
func Boxes(x int) *int {
	return b.Box(x)
}
