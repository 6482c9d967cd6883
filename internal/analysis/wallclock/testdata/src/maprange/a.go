// Fixture for the wallclock analyzer's map-range row: every range over
// a map is reported at its for statement, whatever the body does, and
// no directive waives it. Ranges over everything else stay legal.
package maprange

import (
	"sort"

	"gflink/internal/vclock"
)

// --- bodies with an order-observable effect ---

func sends(m map[string]int, ch chan int) {
	for _, v := range m { // want `range over a map`
		ch <- v
	}
}

func appends(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return keys
}

func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `range over a map`
		sum += v
	}
	return sum
}

func stringConcat(m map[string]string) string {
	out := ""
	for _, v := range m { // want `range over a map`
		out = out + v
	}
	return out
}

func tick(c *vclock.Clock) {
	c.Sleep(1)
}

func clockDirect(m map[string]int, c *vclock.Clock) {
	for range m { // want `range over a map`
		c.Sleep(1)
	}
}

func clockTransitive(m map[string]int, c *vclock.Clock) {
	for range m { // want `range over a map`
		tick(c)
	}
}

func panics(m map[string]int) {
	for k, v := range m { // want `range over a map`
		if v < 0 {
			panic("negative count for " + k)
		}
	}
}

func returnsFirst(m map[string]int) (string, bool) {
	for k := range m { // want `range over a map`
		return k, true
	}
	return "", false
}

// --- bodies whose effect is order-free: still reported ---

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intSum(m map[string]int) int {
	n := 0
	for _, v := range m { // want `range over a map`
		n += v
	}
	return n
}

func innerAccum(m map[string][]float64) {
	for _, vs := range m { // want `range over a map`
		s := 0.0
		for _, v := range vs {
			s += v
		}
		_ = s
	}
}

func panicsConst(m map[string]int) {
	for _, v := range m { // want `range over a map`
		if v < 0 {
			panic("negative count")
		}
	}
}

// The retired unordered directive waives nothing.
func suppressedSend(m map[string]int, ch chan int) {
	//gflink:unordered -- every entry reaches the channel; the consumer sorts
	for _, v := range m { // want `range over a map`
		ch <- v
	}
}

// --- map types reached other ways ---

type table map[int]string

type holder struct{ byName map[string]int }

func lookup() map[string]bool { return nil }

func named(t table) {
	for k := range t { // want `range over a map`
		_ = k
	}
}

func field(h holder) {
	for k := range h.byName { // want `range over a map`
		_ = k
	}
}

func result() {
	for k := range lookup() { // want `range over a map`
		_ = k
	}
}

func literal(ch chan string) {
	for k := range map[string]int{"a": 1} { // want `range over a map`
		ch <- k
	}
}

// --- type parameters whose core type is a map ---

func Sum[M ~map[string]int](m M) int {
	n := 0
	for _, v := range m { // want `range over a map`
		n += v
	}
	return n
}

type counts map[int]int

type tally map[int]int

type eitherMap interface{ counts | tally }

func union[M eitherMap](m M) {
	for k := range m { // want `range over a map`
		_ = k
	}
}

type stringer interface{ String() string }

func embedded[M interface {
	stringer
	eitherMap
}](m M) {
	for k := range m { // want `range over a map`
		_ = k
	}
}

// --- not maps: allowed ---

func SumSlice[S ~[]int](s S) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}

func runes[S ~string](s S) int {
	n := 0
	for _, r := range s {
		n += int(r)
	}
	return n
}

func notMaps(xs []int, arr [4]int, parr *[4]int, s string, ch chan int) int {
	n := 0
	for _, v := range xs {
		n += v
	}
	for _, v := range arr {
		n += v
	}
	for _, v := range parr {
		n += v
	}
	for _, r := range s {
		n += int(r)
	}
	for v := range ch {
		n += v
	}
	for i := range 3 {
		n += i
	}
	return n
}
