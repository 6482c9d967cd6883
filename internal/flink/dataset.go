package flink

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// Partition is one distributed slice of a Dataset, pinned to a worker.
// Items holds the real (scaled-down) records; Nominal is the
// paper-scale record count the partition represents for cost purposes.
type Partition[T any] struct {
	Worker  int
	Items   []T
	Nominal int64
}

// Dataset mirrors Flink's DST: a collection of records partitioned over
// the cluster, manipulated through transformation operators. Called
// directly, the engine is eager — each operator deploys its tasks
// immediately — which keeps the simulation faithful to task-level
// costs. The deferred optimizer lives above it: package plan records
// operators as JobGraph nodes, chains narrow ones, places Either nodes
// on CPU or GPU, and only then drives these same eager operators.
type Dataset[T any] struct {
	job         *Job
	parts       []Partition[T]
	recordBytes int // approximate serialized record size
}

// AnyDataset is the type-erased view of a Dataset, enough for the plan
// layer's chaining pass to reason about record sizes and counts without
// knowing T.
type AnyDataset interface {
	Partitions() int
	RecordBytes() int
	NominalCount() int64
}

// Job returns the owning job.
func (d *Dataset[T]) Job() *Job { return d.job }

// Partitions returns the partition count.
func (d *Dataset[T]) Partitions() int { return len(d.parts) }

// Partition returns partition p. The Items slice is a defensive copy:
// callers may reorder or overwrite it without corrupting the dataset.
// Record contents of reference types are still shared — partitions hold
// live simulation state (e.g. GDST blocks), not serialized bytes.
func (d *Dataset[T]) Partition(p int) Partition[T] {
	part := d.parts[p]
	items := make([]T, len(part.Items))
	copy(items, part.Items)
	part.Items = items
	return part
}

// RecordBytes returns the per-record serialized size estimate.
func (d *Dataset[T]) RecordBytes() int { return d.recordBytes }

// NominalCount sums the nominal record counts of all partitions.
func (d *Dataset[T]) NominalCount() int64 {
	var n int64
	for _, p := range d.parts {
		n += p.Nominal
	}
	return n
}

// RealCount sums the real record counts.
func (d *Dataset[T]) RealCount() int64 {
	var n int64
	for _, p := range d.parts {
		n += int64(len(p.Items))
	}
	return n
}

// realDivisor returns the cluster's nominal-to-real scale.
func (j *Job) realDivisor() int64 { return j.cluster.Cfg.ScaleDivisor }

// FromPartitions wraps pre-built partitions as a Dataset.
func FromPartitions[T any](j *Job, recordBytes int, parts []Partition[T]) *Dataset[T] {
	return &Dataset[T]{job: j, parts: parts, recordBytes: recordBytes}
}

// Generate creates a Dataset of nominal records spread over parallelism
// partitions (round-robin across workers). gen produces the real
// records: it receives the partition index and the record's nominal
// ordinal, so generators stay deterministic under any scale divisor.
// Generation itself is free (input staging precedes the measured job).
func Generate[T any](j *Job, name string, nominal int64, recordBytes, parallelism int, gen func(part int, ordinal int64) T) *Dataset[T] {
	if parallelism <= 0 {
		parallelism = j.cluster.Parallelism()
	}
	div := j.realDivisor()
	parts := make([]Partition[T], parallelism)
	per := nominal / int64(parallelism)
	for p := range parts {
		nom := per
		if p == parallelism-1 {
			nom = nominal - per*int64(parallelism-1)
		}
		real := nom / div
		if real == 0 && nom > 0 {
			real = 1
		}
		items := make([]T, real)
		for i := int64(0); i < real; i++ {
			items[i] = gen(p, i*div)
		}
		parts[p] = Partition[T]{Worker: p % j.cluster.Cfg.Workers, Items: items, Nominal: nom}
	}
	return FromPartitions(j, recordBytes, parts)
}

// ReadHDFS creates a Dataset by reading the named file: one source task
// per split, charging disk (and network, when the split is not local)
// before materializing records with gen, exactly as a Flink HDFS input
// format would. recordBytes is the on-disk record size; the nominal
// record count of each partition is split bytes / recordBytes.
func ReadHDFS[T any](j *Job, file string, parallelism, recordBytes int, gen func(split int, ordinal int64) T) (*Dataset[T], error) {
	f, err := j.cluster.FS.Open(file)
	if err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = j.cluster.Parallelism()
	}
	splits := j.cluster.FS.Splits(f, parallelism)
	div := j.realDivisor()
	parts := make([]Partition[T], len(splits))
	// Prefer split-local workers, falling back to round-robin.
	workerOf := func(p int) int {
		if locals := splits[p].LocalNodes; len(locals) > 0 {
			return locals[p%len(locals)]
		}
		return p % j.cluster.Cfg.Workers
	}
	j.RunTasks("source:"+file, len(splits), workerOf, func(p int, tm *TaskManager) {
		s := splits[p]
		j.cluster.FS.ReadSplit(tm.ID, s)
		nom := s.Length / int64(recordBytes)
		real := nom / div
		if real == 0 && nom > 0 {
			real = 1
		}
		items := make([]T, real)
		for i := int64(0); i < real; i++ {
			items[i] = gen(p, i*div)
		}
		parts[p] = Partition[T]{Worker: tm.ID, Items: items, Nominal: nom}
	})
	return FromPartitions(j, recordBytes, parts), nil
}

// scaleNominal rescales a nominal count by the observed real
// selectivity.
func scaleNominal(nominal, realIn, realOut int64) int64 {
	if realIn <= 0 {
		return 0
	}
	return nominal * realOut / realIn
}

// ScaleNominal is the exported selectivity rescaling rule, shared with
// the plan layer's fused chains so a fused filter shrinks nominal
// counts exactly as the eager operator would.
func ScaleNominal(nominal, realIn, realOut int64) int64 {
	return scaleNominal(nominal, realIn, realOut)
}

// ChargeCompute sleeps for the iterator-model execution time of a task
// processing nominal records with per-record demand perRec. Exposed for
// operators (such as GFlink's GPU producers) that account for their own
// costs through ProcessPartitions.
func (j *Job) ChargeCompute(nominal int64, perRec costmodel.Work) {
	j.cluster.Clock.Sleep(j.cluster.Cfg.Model.CPU.SlotTime(nominal, perRec.Scale(float64(nominal))))
}

// ChargeWork sleeps for the slot time of the batch demand w with no
// per-record iterator overhead. Fused operator chains use it: the chain
// head charges the record overhead once (records enter the fused task
// through one iterator), and each chained operator then charges only
// its compute and memory demand.
func (j *Job) ChargeWork(w costmodel.Work) {
	j.cluster.Clock.Sleep(j.cluster.Cfg.Model.CPU.SlotTime(0, w))
}

// ProcessPartitions deploys one task per partition that transforms the
// whole partition without the engine charging any per-record cost: the
// body accounts for its own resource use. body returns the output items
// and their nominal count. This is the extension hook GFlink's
// block-processing operators are built on — it bypasses the
// one-element-at-a-time iterator model (Section 3.1's execution-model
// mismatch).
func ProcessPartitions[T, U any](d *Dataset[T], name string, outBytes int, body func(p, worker int, in Partition[T]) ([]U, int64)) *Dataset[U] {
	out := make([]Partition[U], len(d.parts))
	d.job.RunTasks(name, len(d.parts), d.workerOf, func(p int, tm *TaskManager) {
		in := d.parts[p]
		items, nominal := body(p, in.Worker, in)
		out[p] = Partition[U]{Worker: in.Worker, Items: items, Nominal: nominal}
	})
	return FromPartitions(d.job, outBytes, out)
}

// Map applies f to every record. perRec is the per-record resource
// demand of f; outBytes the serialized size of U records.
func Map[T, U any](d *Dataset[T], name string, perRec costmodel.Work, outBytes int, f func(T) U) *Dataset[U] {
	out := make([]Partition[U], len(d.parts))
	d.job.RunTasks("map:"+name, len(d.parts), d.workerOf, func(p int, tm *TaskManager) {
		in := d.parts[p]
		d.job.ChargeCompute(in.Nominal, perRec)
		items := make([]U, len(in.Items))
		for i, v := range in.Items {
			items[i] = f(v)
		}
		out[p] = Partition[U]{Worker: in.Worker, Items: items, Nominal: in.Nominal}
	})
	return FromPartitions(d.job, outBytes, out)
}

// Filter keeps records satisfying pred; nominal counts shrink by the
// observed selectivity.
func Filter[T any](d *Dataset[T], name string, perRec costmodel.Work, pred func(T) bool) *Dataset[T] {
	out := make([]Partition[T], len(d.parts))
	d.job.RunTasks("filter:"+name, len(d.parts), d.workerOf, func(p int, tm *TaskManager) {
		in := d.parts[p]
		d.job.ChargeCompute(in.Nominal, perRec)
		var items []T
		for _, v := range in.Items {
			if pred(v) {
				items = append(items, v)
			}
		}
		out[p] = Partition[T]{Worker: in.Worker, Items: items, Nominal: scaleNominal(in.Nominal, int64(len(in.Items)), int64(len(items)))}
	})
	return FromPartitions(d.job, d.recordBytes, out)
}

func (d *Dataset[T]) workerOf(p int) int { return d.parts[p].Worker }

// hashKey maps any comparable key to a deterministic 64-bit hash.
func hashKey[K comparable](k K) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", k)
	return h.Sum64()
}

// sortKeys puts arbitrary comparable keys into a canonical order: by
// deterministic hash, ties broken by formatted representation. Group-by
// operators emit in this order so workload results are byte-stable
// across runs — insertion order would be deterministic too, but would
// change whenever an upstream operator reorders its output, and the
// reproduced figures hash entire result sets.
func sortKeys[K comparable](keys []K) {
	sort.Slice(keys, func(i, j int) bool {
		hi, hj := hashKey(keys[i]), hashKey(keys[j])
		if hi != hj {
			return hi < hj
		}
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
}

// shuffleExchange performs the network exchange for a
// partition-to-partition byte matrix, one transfer per non-empty cell,
// all in parallel. Serialization is charged by the caller's tasks on
// both sides.
func shuffleExchange(j *Job, fromWorker []int, toWorker []int, bytes [][]int64) {
	g := vclock.NewGroup(j.cluster.Clock)
	for p := range bytes {
		for q := range bytes[p] {
			n := bytes[p][q]
			if n <= 0 {
				continue
			}
			src, dst := fromWorker[p], toWorker[q]
			g.Go(fmt.Sprintf("shuffle[%d->%d]", p, q), func() {
				j.cluster.Net.Transfer(src, dst, n)
			})
		}
	}
	g.Wait()
}

// ReduceByKey groups records by key and combines each group to a single
// record with the associative combiner. A map-side combine runs before
// the hash shuffle, as Flink's combinable reduce does, so shuffle
// volume is proportional to distinct keys.
func ReduceByKey[T any, K comparable](d *Dataset[T], name string, perRec costmodel.Work, key func(T) K, combine func(T, T) T) *Dataset[T] {
	nparts := len(d.parts)
	model := d.job.cluster.Cfg.Model

	// Phase 1: map-side combine and split by target partition.
	outbox := make([][][]T, nparts)       // [p][q]records
	outNominal := make([][]int64, nparts) // [p][q]
	d.job.RunTasks("combine:"+name, nparts, d.workerOf, func(p int, tm *TaskManager) {
		in := d.parts[p]
		d.job.ChargeCompute(in.Nominal, perRec)
		groups := make(map[K]T)
		order := make([]K, 0)
		for _, v := range in.Items {
			k := key(v)
			if prev, ok := groups[k]; ok {
				groups[k] = combine(prev, v)
			} else {
				groups[k] = v
				order = append(order, k)
			}
		}
		sortKeys(order)
		byTarget := make([][]T, nparts)
		for _, k := range order {
			q := int(hashKey(k) % uint64(nparts))
			byTarget[q] = append(byTarget[q], groups[k])
		}
		outbox[p] = byTarget
		outNominal[p] = make([]int64, nparts)
		combinedNominal := scaleNominal(in.Nominal, int64(len(in.Items)), int64(len(order)))
		var sent int64
		for q, recs := range byTarget {
			nom := scaleNominal(combinedNominal, int64(len(order)), int64(len(recs)))
			outNominal[p][q] = nom
			sent += nom
		}
		// Sender-side serialization of everything leaving this node.
		d.job.cluster.Clock.Sleep(model.CPU.SerDe(sent * int64(d.recordBytes)))
	})

	// Phase 2: network exchange.
	from := make([]int, nparts)
	to := make([]int, nparts)
	bytes := make([][]int64, nparts)
	for p := range d.parts {
		from[p] = d.parts[p].Worker
		bytes[p] = make([]int64, nparts)
		for q := 0; q < nparts; q++ {
			to[q] = q % d.job.cluster.Cfg.Workers
			bytes[p][q] = outNominal[p][q] * int64(d.recordBytes)
		}
	}
	shuffleExchange(d.job, from, to, bytes)

	// Phase 3: reduce-side final combine.
	out := make([]Partition[T], nparts)
	d.job.RunTasks("reduce:"+name, nparts, func(q int) int { return q % d.job.cluster.Cfg.Workers }, func(q int, tm *TaskManager) {
		var incoming []T
		var nominal int64
		for p := 0; p < nparts; p++ {
			incoming = append(incoming, outbox[p][q]...)
			nominal += outNominal[p][q]
		}
		d.job.cluster.Clock.Sleep(model.CPU.SerDe(nominal * int64(d.recordBytes)))
		d.job.ChargeCompute(nominal, perRec)
		groups := make(map[K]T)
		order := make([]K, 0)
		for _, v := range incoming {
			k := key(v)
			if prev, ok := groups[k]; ok {
				groups[k] = combine(prev, v)
			} else {
				groups[k] = v
				order = append(order, k)
			}
		}
		sortKeys(order)
		items := make([]T, 0, len(order))
		for _, k := range order {
			items = append(items, groups[k])
		}
		out[q] = Partition[T]{Worker: tm.ID, Items: items, Nominal: scaleNominal(nominal, int64(len(incoming)), int64(len(items)))}
	})
	return FromPartitions(d.job, d.recordBytes, out)
}

// Collect gathers every record to the driver (via the master), charging
// serialization and the network hops, and returns them in partition
// order. The returned slice is freshly allocated — mutating it (or its
// order) never touches the source partitions.
func Collect[T any](d *Dataset[T]) []T {
	model := d.job.cluster.Cfg.Model
	g := vclock.NewGroup(d.job.cluster.Clock)
	for p := range d.parts {
		part := d.parts[p]
		g.Go(fmt.Sprintf("collect[%d]", p), func() {
			bytes := part.Nominal * int64(d.recordBytes)
			d.job.cluster.Clock.Sleep(model.CPU.SerDe(bytes))
			d.job.cluster.Net.Transfer(part.Worker, 0, bytes)
		})
	}
	g.Wait()
	var out []T
	for _, p := range d.parts {
		out = append(out, p.Items...)
	}
	return out
}

// Broadcast charges the cost of shipping n bytes from the driver to
// every worker (used for broadcast variables such as KMeans centroids).
func (j *Job) Broadcast(n int64) {
	g := vclock.NewGroup(j.cluster.Clock)
	for w := 1; w < j.cluster.Cfg.Workers; w++ {
		w := w
		g.Go(fmt.Sprintf("broadcast[%d]", w), func() {
			j.cluster.Net.Transfer(0, w, n)
		})
	}
	g.Wait()
	j.cluster.Clock.Sleep(j.cluster.Cfg.Model.Net.Latency)
}

// AllGather charges redistributing a totalBytes value that is
// partitioned across the workers so every worker ends with the whole
// value (e.g., the SpMV vector between iterations): each worker ships
// its share to every peer, all links working in parallel.
func (j *Job) AllGather(totalBytes int64) {
	w := j.cluster.Cfg.Workers
	if w <= 1 || totalBytes <= 0 {
		return
	}
	share := totalBytes / int64(w)
	g := vclock.NewGroup(j.cluster.Clock)
	for src := 0; src < w; src++ {
		for dst := 0; dst < w; dst++ {
			if src == dst {
				continue
			}
			src, dst := src, dst
			g.Go(fmt.Sprintf("allgather[%d->%d]", src, dst), func() {
				j.cluster.Net.Transfer(src, dst, share)
			})
		}
	}
	g.Wait()
}

// ShuffleBytes charges an even all-to-all exchange of totalBytes (e.g.,
// a join's build-side redistribution) without moving any real data.
func (j *Job) ShuffleBytes(totalBytes int64) {
	w := j.cluster.Cfg.Workers
	if w <= 1 || totalBytes <= 0 {
		return
	}
	per := totalBytes / int64(w*w)
	if per <= 0 {
		per = 1
	}
	g := vclock.NewGroup(j.cluster.Clock)
	for src := 0; src < w; src++ {
		for dst := 0; dst < w; dst++ {
			if src == dst {
				continue
			}
			src, dst := src, dst
			g.Go(fmt.Sprintf("shufbytes[%d->%d]", src, dst), func() {
				j.cluster.Net.Transfer(src, dst, per)
			})
		}
	}
	g.Wait()
}

// Superstep charges the driver-side synchronization barrier between
// bulk iterations.
func (j *Job) Superstep() {
	j.cluster.Clock.Sleep(j.cluster.Cfg.Model.Overheads.SuperstepSync)
}
