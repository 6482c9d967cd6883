package plan

import (
	"gflink/internal/costmodel"
	"gflink/internal/flink"
)

// Stream is a typed handle on one plan node's (future) dataset. Stream
// operators append nodes; nothing executes until Graph.Execute.
type Stream[T any] struct {
	gr *Graph
	n  *node
}

func newStream[T any](gr *Graph, n *node) *Stream[T] {
	gr.add(n)
	return &Stream[T]{gr: gr, n: n}
}

// Source appends a source node: fn materializes the root dataset (an
// HDFS read, a generator, a GDST build) when the graph executes.
func Source[T any](gr *Graph, name string, fn func(ctx *Ctx) *flink.Dataset[T]) *Stream[T] {
	return newStream[T](gr, &node{
		kind: kSource,
		name: "source:" + name,
		run:  func(ctx *Ctx, _ any) any { return fn(ctx) },
	})
}

// Map appends a narrow map node (chainable). perRec and outBytes carry
// the same cost declarations as the eager operator.
func Map[T, U any](s *Stream[T], name string, perRec costmodel.Work, outBytes int, f func(T) U) *Stream[U] {
	return newStream[U](s.gr, &node{
		kind:     kMap,
		name:     name,
		up:       s.n,
		perRec:   perRec,
		outBytes: outBytes,
		run: func(ctx *Ctx, in any) any {
			return flink.Map(in.(*flink.Dataset[T]), name, perRec, outBytes, f)
		},
		rec:   func(v any) (any, bool) { return f(v.(T)), true },
		erase: erasePartitions[T],
		build: buildDataset[U],
	})
}

// Filter appends a narrow filter node (chainable).
func Filter[T any](s *Stream[T], name string, perRec costmodel.Work, pred func(T) bool) *Stream[T] {
	return newStream[T](s.gr, &node{
		kind:     kFilter,
		name:     name,
		up:       s.n,
		perRec:   perRec,
		outBytes: -1,
		run: func(ctx *Ctx, in any) any {
			return flink.Filter(in.(*flink.Dataset[T]), name, perRec, pred)
		},
		rec:   func(v any) (any, bool) { return v, pred(v.(T)) },
		erase: erasePartitions[T],
		build: buildDataset[T],
	})
}

// ReduceByKey appends a combinable key reduction — a wide node: it
// barriers chaining on both sides (the shuffle is a hard stage
// boundary, as in Flink).
func ReduceByKey[T any, K comparable](s *Stream[T], name string, perRec costmodel.Work, key func(T) K, combine func(T, T) T) *Stream[T] {
	return newStream[T](s.gr, &node{
		kind: kReduceByKey,
		name: "reduceByKey:" + name,
		up:   s.n,
		run: func(ctx *Ctx, in any) any {
			return flink.ReduceByKey(in.(*flink.Dataset[T]), name, perRec, key, combine)
		},
	})
}

// Either appends a dataset-typed placement node: the GPU body transforms
// the stream iff the graph's mode is ForceGPU. Both bodies see the
// materialized input dataset and account their own costs, exactly like
// the eager workload variants they replace.
func Either[In, Out any](s *Stream[In], name string,
	cpu, gpu func(ctx *Ctx, in *flink.Dataset[In]) *flink.Dataset[Out]) *Stream[Out] {
	return newStream[Out](s.gr, &node{
		kind: kEither,
		name: "either:" + name,
		up:   s.n,
		run: func(ctx *Ctx, in any) any {
			d := in.(*flink.Dataset[In])
			if ctx.st.opts.Mode == ForceGPU {
				return gpu(ctx, d)
			}
			return cpu(ctx, d)
		},
	})
}

// Collect appends a driver sink that gathers the stream's records
// (charging the usual serialization and network cost) and hands them to
// fn on the driver.
func Collect[T any](s *Stream[T], name string, fn func(ctx *Ctx, recs []T)) {
	s.gr.add(&node{
		kind: kSink,
		name: "collect:" + name,
		up:   s.n,
		run: func(ctx *Ctx, in any) any {
			fn(ctx, flink.Collect(in.(*flink.Dataset[T])))
			return nil
		},
	})
}

// Sink appends a terminal node that consumes the materialized dataset.
func Sink[T any](s *Stream[T], name string, fn func(ctx *Ctx, d *flink.Dataset[T])) {
	s.gr.add(&node{
		kind: kSink,
		name: "sink:" + name,
		up:   s.n,
		run: func(ctx *Ctx, in any) any {
			fn(ctx, in.(*flink.Dataset[T]))
			return nil
		},
	})
}
