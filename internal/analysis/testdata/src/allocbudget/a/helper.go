// Package a is the allocbudget fixture for escape sites the compiler reports
// in another package's file: the bodies of generic functions instantiated here.
package a

// Quiet allocates nothing. It covers the line of this helper.go on which
// b.Box escapes in b's helper.go, so a gate that maps sites to files by base
// name alone charges Quiet with b's escape.
func Quiet(x int) int {
	x++
	x *= 2
	return x
}
