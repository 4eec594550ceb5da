// Package hotpath exercises the hot-function analyzer: a marked body must be
// free of dynamic dispatch, closures, fmt/log, defer/go, and implicit heap
// escapes, while the kernel's sanctioned shapes (type-parameter calls, cold
// helpers, audited suppressions) stay legal.
package hotpath

import "fmt"

// Emitter is the dispatch surface the marked functions are held away from.
type Emitter interface {
	Emit(int)
}

// box stands in for any call that takes an interface parameter.
func box(v any) { _ = v }

// release stands in for a resource-release helper.
func release() {}

// Hot trips every rule once.
//
//antlint:hotpath
func Hot(e Emitter, xs []int, n int) error {
	e.Emit(1)                    // want `hotpath Hot: interface method call e\.Emit \(dynamic dispatch on hotpath\.Emitter\)`
	f := func() int { return 0 } // want `hotpath Hot: closure allocation`
	_ = f
	defer release() // want `hotpath Hot: defer in the hot path`
	go release()    // want `hotpath Hot: goroutine launch in the hot path`
	p := &n         // want `hotpath Hot: address of parameter n escapes`
	_ = p
	box(n) // want `hotpath Hot: implicit conversion of int to interface`
	if n < 0 {
		return fmt.Errorf("n = %d", n) // want `hotpath Hot: fmt\.Errorf call; formatting allocates`
	}
	_ = xs
	return nil
}

// advance is the kernel's gcshape pattern: a call on a type parameter is the
// sanctioned, dictionary-bounded dispatch, not an interface call.
//
//antlint:hotpath
func advance[T Emitter](t T, n int) {
	for i := 0; i < n; i++ {
		t.Emit(i)
	}
}

var _ = advance[nopEmitter]

// nopEmitter instantiates advance.
type nopEmitter struct{}

// Emit implements Emitter.
func (nopEmitter) Emit(int) {}

// HotAllowed shows the audited one-dispatch escape hatch the engine's refill
// uses for EmitSortie.
//
//antlint:hotpath
func HotAllowed(e Emitter) {
	e.Emit(0) //antlint:allow hotpath the one sanctioned dispatch per sortie
}

// cold is unmarked: formatting in cold code is fine, and constants passed to
// interface parameters in any code box to static data.
func cold(n int) error {
	box(7)
	return fmt.Errorf("n = %d", n)
}

var _ = cold

// want[2] `antlint:hotpath marker is not attached to a function declaration`
//
//antlint:hotpath
var dangling int

var _ = dangling
