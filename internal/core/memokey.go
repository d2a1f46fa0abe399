package core

import "fmt"

// memoKey renders a Scenario into its memo key. Two scenarios must share
// a key exactly when they are equal, because the singleflight memo
// (runner.go) shares one *Result per key across the whole process.
//
// The key is derived from the type, so a field added to Scenario or to
// any struct it embeds is covered with no line here. %#v is injective on
// what Scenario holds — structs, numbers, bools, strings and slices; no
// pointers, maps, funcs or interfaces, which perturbLeaf in the tests
// rejects: it names every field, quotes strings and prints floats at
// shortest round-trip precision. Its format may change between Go
// releases, but the memo never outlives the process. A nil and an empty
// slice get different keys, as reflect.DeepEqual tells them apart, so a
// grid and its render must build each cell the same way
// (TestPrewarmCoversRender).
func memoKey(s Scenario) string { return fmt.Sprintf("%#v", s) }
