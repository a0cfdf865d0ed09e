// Fixture: main, init, a var initializer and a test are the roots. Every
// function they cannot reach is reported. Each unannotated function below
// is reached through a call, a function value, an enclosed literal, a
// spawn, or an interface its receiver satisfies.
package main

import (
	"container/heap"
	"fmt"
	"sort"

	sim "sprite/internal/sim"
)

func main() {
	called()
	var t T
	f := t.methodValue // method value: live without a visible call
	f()
	s := &sim.Simulation{}
	s.Spawn("worker", spawned)
	s.Spawn("inline", func(env *sim.Env) error {
		env.Spawn("child", spawnedChild)
		return nil
	})
	fmt.Println(t)
	sort.Sort(byLen{"bb", "a"})
	h := &intHeap{3, 1}
	heap.Init(h)
	var sh shape = square{}
	_ = sh
	_ = fmt.Errorf("%w", &fixErr{})
	var x any = peeled{}
	if p, ok := x.(interface{ peel() int }); ok {
		_ = p
	}
}

func init() { fromInit() }

// A var initializer runs before main: what it references is live.
var analyzer = struct{ Run func() error }{Run: fromVarInit}

var table = map[string]func(){"x": func() { fromVarLiteral() }}

func called()            {}
func fromInit()          {}
func fromVarInit() error { return nil }
func fromVarLiteral()    {}

func spawned(env *sim.Env) error      { return nil }
func spawnedChild(env *sim.Env) error { return nil }

// testOnly is called only from a_test.go: tests are roots, so it stays.
func testOnly() {}

type T struct{}

func (T) methodValue() {}

// String satisfies the imported fmt.Stringer.
func (T) String() string { return "T" }

func (T) orphanMethod() {} // want `a\.\(T\)\.orphanMethod is unreachable from every root`

// byLen satisfies the imported sort.Interface; its methods have no
// static caller.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// intHeap satisfies heap.Interface, which embeds sort.Interface.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// fixErr satisfies the predeclared error interface.
type fixErr struct{}

func (*fixErr) Error() string { return "fixture" }

// peeled satisfies only an interface literal written at a type assertion.
type peeled struct{}

func (peeled) peel() int { return 0 }

// shape is declared in the tree; square satisfies it.
type shape interface{ area() int }

type square struct{}

func (square) area() int { return 1 }

func unreferenced() {} // want `a\.unreferenced is unreachable from every root`

func deadCaller() { onlyDeadCalls() } // want `a\.deadCaller is unreachable`

func onlyDeadCalls() {} // want `a\.onlyDeadCalls is unreachable`
