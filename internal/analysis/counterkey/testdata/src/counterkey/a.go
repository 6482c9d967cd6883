// Fixture for the counterkey analyzer: counter names reaching the obs
// registry must be constant format strings matching the grammar.
package counterkey

import (
	"fmt"
	"strings"

	"counterkey/dep"

	"gflink/internal/obs"
)

func good(r *obs.Registry) {
	r.Counter("cache.hits").Add(1)
	r.Counter("sched.steals.w3").Add(1)
	r.Counter(fmt.Sprintf("xfer.h2d.bytes.gpu%d", 2)).Add(64)
	r.Counter("cache.evictions.gpu11").Add(1)
	r.Counter("sched.direct").Add(1) // prefix of a valid key is valid
	r.Counter("mem.demotions.gpu0").Add(1)
	r.Counter("mem.spills").Add(1) // tier totals before the device suffix is appended
	r.Counter(fmt.Sprintf("mem.promotions.gpu%d", 1)).Add(1)
	r.Counter("mem.reloads.gpu7").Add(1)
	r.Counter("stream.records.s0").Add(1)
	r.Counter(fmt.Sprintf("stream.blockedns.s%d", 2)).Add(1)
	r.Counter("stream.grants").Add(1) // edge totals before the stage suffix is appended
}

// maxIsKeyed: high-watermark gauges are Counter handles bumped with
// Max, so they live in the same grammar-checked namespace.
func maxIsKeyed(r *obs.Registry, stage int) {
	r.Counter("stream.depthmax.s1").Max(4)
	r.Counter(fmt.Sprintf("stream.depthmax.s%d", stage)).Max(4)
	r.Counter("stream.credits").Max(1) // want `does not match the metrics grammar`
	r.Counter("queue.depth").Max(1)    // want `does not match the metrics grammar`
}

func typos(r *obs.Registry) {
	r.Counter("cache.hit").Add(1)           // want `does not match the metrics grammar`
	r.Counter("xfer.h2d.gpu0").Add(1)       // want `does not match the metrics grammar`
	r.Counter("queue.depth").Add(1)         // want `does not match the metrics grammar`
	r.Counter("sched.w3").Add(1)            // want `does not match the metrics grammar`
	r.Counter("cache.hits.cpu").Add(1)      // want `does not match the metrics grammar`
	r.Counter("mem.evictions").Add(1)       // want `does not match the metrics grammar`
	r.Counter("mem.spills.w2").Add(1)       // want `does not match the metrics grammar`
	r.Counter("stream.credits").Add(1)      // want `does not match the metrics grammar`
	r.Counter("stream.records.gpu0").Add(1) // want `does not match the metrics grammar`
}

func tooLong(r *obs.Registry) {
	r.Counter("sched.pooled.w1.extra").Add(1) // want `does not match the metrics grammar`
}

func formattedTail(r *obs.Registry, event string, gpu int) {
	// A literal root with a formatted tail is accepted: the producers
	// of the dynamic pieces are validated at their own call sites.
	r.Counter("cache." + event + fmt.Sprintf(".gpu%d", gpu)).Add(1)
	r.Counter(fmt.Sprintf("xfer.d2h.bytes.gpu%d", gpu)).Add(1)
}

func dynamicRoot(r *obs.Registry, parts []string) {
	r.Counter(strings.Join(parts, ".")).Add(1) // want `not a compile-time constant`
}

func badRootFormat(r *obs.Registry) {
	r.Counter(fmt.Sprintf("%d.hits", 3)).Add(1) // want `not a compile-time constant`
}

func viaLocal(r *obs.Registry) {
	key := "sched.oops"
	r.Counter(key).Add(1) // want `does not match the metrics grammar`
	ok := "cache.misses"
	r.Counter(ok).Add(1)
}

// helper roots its key at a parameter, so it acquires a CounterKey
// obligation and its callers are checked instead.
func helper(r *obs.Registry, name string) {
	r.Counter(fmt.Sprintf("%s.w%d", name, 3)).Add(1)
}

func callsHelper(r *obs.Registry) {
	helper(r, "sched.direct")
	helper(r, "sched.oops") // want `does not match the metrics grammar`
}

// chained forwards its parameter into helper: the obligation
// propagates through the package-local fixpoint.
func chained(r *obs.Registry, name string) {
	helper(r, name)
}

func callsChained(r *obs.Registry) {
	chained(r, "sched.pooled")
	chained(r, "flink.latency") // want `does not match the metrics grammar`
}

func crossPackage(r *obs.Registry) {
	dep.KeyedCount(r, "sched.steals", 2)
	dep.KeyedCount(r, "spark.shuffle", 2) // want `does not match the metrics grammar`
}

func waived(r *obs.Registry, key string) {
	r.Counter(key).Add(1) //gflink:counter-key -- bridge for externally-namespaced metrics
}

// keyFields exercises field provenance: hot paths precompute counter
// names into struct fields, and a field read is a valid key when every
// package-local assignment to the field is a grammar-valid pattern.
type keyFields struct {
	direct   string
	h2dName  string
	typo     string
	dynamic  string
	poisoned string
}

func newKeyFields(node, gpu int, parts []string) *keyFields {
	k := &keyFields{
		direct: fmt.Sprintf("sched.direct.w%d", node),
		typo:   "queue.depth",
	}
	k.h2dName = fmt.Sprintf("xfer.h2d.bytes.gpu%d", gpu)
	k.dynamic = strings.Join(parts, ".")
	// Provenance is the conjunction of every assignment in the package:
	// one bad write (the literal below) poisons the field even at reads
	// that only ever see the good write at runtime.
	k.poisoned = "cache.hits"
	return k
}

func usesKeyFields(r *obs.Registry, k *keyFields) {
	r.Counter(k.direct).Add(1)
	r.Counter(k.h2dName).Add(1)
	r.Counter(k.typo).Add(1)     // want `does not match the metrics grammar`
	r.Counter(k.dynamic).Add(1)  // want `not a compile-time constant`
	r.Counter(k.poisoned).Add(1) // want `does not match the metrics grammar`
}

func poisons(k *keyFields) {
	k.poisoned = "flink.latency"
}
