package plan

import (
	"gflink/internal/costmodel"
	"gflink/internal/flink"
)

// epart is one type-erased partition flowing through a fused chain.
type epart struct {
	worker  int
	items   []any
	nominal int64
}

// erasePartitions lifts a typed dataset's partitions into erased form —
// the head of a fused chain applies its input type's instantiation.
func erasePartitions[T any](ds any) []epart {
	d := ds.(*flink.Dataset[T])
	out := make([]epart, d.Partitions())
	for p := range out {
		part := d.Partition(p)
		items := make([]any, len(part.Items))
		for i, v := range part.Items {
			items[i] = v
		}
		out[p] = epart{worker: part.Worker, items: items, nominal: part.Nominal}
	}
	return out
}

// buildDataset rebuilds a typed dataset from erased partitions — the
// last member of a fused chain applies its output type's instantiation.
func buildDataset[U any](j *flink.Job, recordBytes int, eps []epart) any {
	parts := make([]flink.Partition[U], len(eps))
	for p, ep := range eps {
		items := make([]U, len(ep.items))
		for i, v := range ep.items {
			items[i] = v.(U)
		}
		parts[p] = flink.Partition[U]{Worker: ep.worker, Items: items, Nominal: ep.nominal}
	}
	return flink.FromPartitions(j, recordBytes, parts)
}

// fuseChains is the chaining pass: every maximal run of consecutive
// chainable nodes — consecutive both in program order and in dataflow
// (each member is the sole consumer of its predecessor) — collapses
// into one fused node. Interleaved driver nodes break a run: their
// clock effects must stay ordered exactly as the program wrote them.
func fuseChains(nodes []*node) []*node {
	consumers := make(map[*node]int, len(nodes))
	for _, n := range nodes {
		if n.up != nil {
			consumers[n.up]++
		}
	}
	out := make([]*node, 0, len(nodes))
	for i := 0; i < len(nodes); {
		n := nodes[i]
		if n.chainable() {
			j := i
			for j+1 < len(nodes) && nodes[j+1].chainable() &&
				nodes[j+1].up == nodes[j] && consumers[nodes[j]] == 1 {
				j++
			}
			if j > i {
				out = append(out, fuseNode(nodes[i:j+1]))
				i = j + 1
				continue
			}
		}
		out = append(out, n)
		i++
	}
	return out
}

// fuseNode builds the fused task for a chain of narrow members. The
// fused execution deploys one task per partition; inside it, the head
// charges the per-record iterator overhead once for its nominal count,
// then each member charges only its batch compute demand (at the
// nominal scale of its own input) and transforms the records — the
// function-call composition Flink's chaining achieves. Relative to the
// unfused plan this strictly removes (k-1) deploy rounds and every
// downstream member's record overhead while charging identical
// compute, so chaining can only reduce simulated time.
func fuseNode(members []*node) *node {
	name := "chain"
	for _, m := range members {
		name += ":" + m.name
	}
	last := members[len(members)-1]
	return &node{
		kind:     kChain,
		name:     name,
		up:       members[0].up,
		aliasFor: last,
		chainLen: len(members),
		run: func(ctx *Ctx, in any) any {
			j := ctx.Job
			eps := members[0].erase(in)
			out := make([]epart, len(eps))
			j.RunTasks(name, len(eps), func(p int) int { return eps[p].worker }, func(p int, tm *flink.TaskManager) {
				ep := eps[p]
				j.ChargeCompute(ep.nominal, costmodel.Work{})
				items, nominal := ep.items, ep.nominal
				for _, m := range members {
					j.ChargeWork(m.perRec.Scale(float64(nominal)))
					next := make([]any, 0, len(items))
					for _, v := range items {
						if u, ok := m.rec(v); ok {
							next = append(next, u)
						}
					}
					// Maps are 1:1 by construction: nominal is carried, not
					// rescaled, matching the eager operator on empty
					// partitions too.
					if m.kind != kMap {
						nominal = flink.ScaleNominal(nominal, int64(len(items)), int64(len(next)))
					}
					items = next
				}
				out[p] = epart{worker: ep.worker, items: items, nominal: nominal}
			})
			recordBytes := in.(flink.AnyDataset).RecordBytes()
			for _, m := range members {
				if m.outBytes >= 0 {
					recordBytes = m.outBytes
				}
			}
			return last.build(j, recordBytes, out)
		},
	}
}
