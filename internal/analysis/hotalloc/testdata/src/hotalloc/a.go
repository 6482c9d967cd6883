// Package hotalloc exercises the hotalloc analyzer: annotated hot
// paths must not heap-allocate; cold code may.
package hotalloc

import (
	"encoding/binary"
	"math"

	"hotalloc/dep"
)

type point struct{ x, y int }

func box(v interface{}) {}

func variadic(xs ...int) int { return len(xs) }

func cleanup() {}

//gflink:hotpath
func hotMake() {
	_ = make([]int, 4) // want `make allocates`
}

//gflink:hotpath
func hotNew() {
	_ = new(point) // want `new allocates`
}

//gflink:hotpath
func hotAppend(xs []int) []int {
	return append(xs, 1) // want `append may grow`
}

//gflink:hotpath
func hotGrow(xs []int) []int {
	//gflink:allow-alloc amortized growth is a deliberate cold branch
	return append(xs, 1)
}

//gflink:hotpath
func hotEscape() *point {
	p := &point{x: 1} // want `escaping &composite literal`
	return p
}

//gflink:hotpath
func hotStackLocal() int {
	p := &point{x: 1} // stays on the stack: fields, nil compare, deref only
	p.x++
	if p != nil {
		p.y = (*p).x
	}
	return p.x + p.y
}

//gflink:hotpath
func hotSliceLit() {
	_ = []int{1, 2} // want `slice literal`
}

//gflink:hotpath
func hotMapWrite(m map[string]int) {
	m["k"] = 1 // want `map-element assignment`
	m["k"]++   // want `map-element assignment`
	_ = m["k"] // reads are free
}

//gflink:hotpath
func hotConcat(a, b string) string {
	const greeting = "hello, " + "world" // constant-folded: free
	_ = greeting
	return a + b // want `string concatenation`
}

//gflink:hotpath
func hotConvert(b []byte, s string) (string, []byte) {
	return string(b), []byte(s) // want `conversion to string` `conversion of a string`
}

//gflink:hotpath
func hotClosure() {
	f := func() {} // want `function literal allocates a closure`
	f()            // want `call through a function value`
}

//gflink:hotpath
func hotMethodValue() func() {
	return cleanup // plain func value: free
}

//gflink:hotpath
func hotBox(p *point) {
	box(p)  // pointers fit the interface word: free
	box(42) // want `boxes a non-pointer value`
	box(nil)
}

//gflink:hotpath
func hotVariadic() int {
	_ = variadic()     // empty variadic list: free
	return variadic(1) // want `variadic argument list allocates`
}

//gflink:hotpath
func hotGo() {
	go cleanup() // want `go statement allocates`
}

//gflink:hotpath
func hotDeferLoop(n int) {
	defer cleanup() // open-coded, free
	for i := 0; i < n; i++ {
		defer cleanup() // want `defer inside a loop`
	}
}

//gflink:hotpath
func hotCallsHelper() {
	helper()
}

// helper is hot only transitively (called from hotCallsHelper), so its
// sites are reported in place.
func helper() {
	_ = make([]int, 1) // want `make allocates`
}

//gflink:hotpath
func hotCallsDep() int {
	_ = dep.Dirty()    // want `dep.Dirty, which is not proven allocation-free`
	_ = dep.DirtyVia() // want `dep.DirtyVia, which is not proven allocation-free`
	_ = dep.Waived(nil)
	_ = dep.Lookup("a")
	return dep.CleanVia()
}

//gflink:hotpath
func hotWaivedCall() {
	//gflink:allow-alloc error cold path
	_ = dep.Dirty()
}

// coldHelper is reached from hot code only through a waived call, so
// hotness does not spread into it and its allocations are cold.
func coldHelper() []int { return make([]int, 8) }

//gflink:hotpath
func hotColdBranch(fail bool) {
	if fail {
		//gflink:allow-alloc error cold path
		_ = coldHelper()
	}
}

// coldAllocs is never on a hot path; nothing is reported.
func coldAllocs() []int {
	m := map[string]int{}
	m["x"] = 1
	return append(make([]int, 0, 8), 1)
}

// Labeled jumps across nested loops keep the whole body hot: the
// allocation is flagged wherever it sits relative to the jumps.
//
//gflink:hotpath
func hotLabeledLoops(n int) int {
	x := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
			x = append([]int(nil), j)[0] // want `append may grow`
		}
	}
	return x
}

// A select with a default clause is still a hot-path construct: both
// the comm case and the default body are checked.
//
//gflink:hotpath
func hotSelectDefault(ch chan int, buf []int) []int {
	select {
	case v := <-ch:
		return append(buf, v) // want `append may grow`
	default:
	}
	return buf
}

// gate mimics the obs layer's Enabled convention: a niladic method
// returning bool.
type gate struct{ on bool }

func (g *gate) Enabled() bool { return g != nil && g.on }

// notGate has the right name but the wrong shape (takes an argument).
type notGate struct{}

func (notGate) Enabled(x int) bool { return x > 0 }

// Allocations inside an Enabled()-guarded body are observability-cold:
// they only run with tracing on, so the hot (disabled) path stays
// provably allocation-free without waivers. Unguarded allocations and
// allocations under a non-conforming guard are still reported.
//
//gflink:hotpath
func hotEnabledGuard(g *gate, ng notGate, xs []int) int {
	if g.Enabled() {
		attrs := append([]int(nil), xs...)
		return len(attrs)
	}
	if g != nil && g.Enabled() {
		return len(make([]int, 4))
	}
	if ng.Enabled(1) {
		return len(make([]int, 4)) // want `make allocates`
	}
	return append(xs, 1)[0] // want `append may grow`
}

// Bit casts and little-endian loads/stores are allowlisted; other
// byte orders are not.
//
//gflink:hotpath
func hotPack(b []byte, v float32) float32 {
	binary.LittleEndian.PutUint64(b, uint64(math.Float32bits(v)))
	binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b))
	binary.BigEndian.PutUint32(b, 1) // want `not proven allocation-free`
	return math.Float32frombits(uint32(binary.LittleEndian.Uint64(b)))
}
