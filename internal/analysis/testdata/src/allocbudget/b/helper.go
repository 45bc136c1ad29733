// Package b supplies a generic function for package a to instantiate: the
// compiler builds the instantiation as part of a and reports its escape at
// this file's position.
package b

// Box moves x to the heap in whichever package instantiates it. Keep it on
// lines that Quiet spans in a's helper.go; TestAllocBudgetForeignSites checks
// that it is.
func Box[T any](x T) *T {
	return &x
}
