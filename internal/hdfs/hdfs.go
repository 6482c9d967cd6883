// Package hdfs simulates the Hadoop Distributed File System that Flink
// jobs read inputs from and write results to: a NameNode directory of
// files split into replicated blocks placed round-robin over DataNodes,
// with per-node disk contention and network cost for non-local access.
//
// Only the behaviour the paper's evaluation exercises is modelled:
// locality-aware streaming reads of input splits (the dominant cost of
// WordCount and of every job's first iteration) and pipelined
// replicated writes (the last-iteration cost visible in Fig 7a/7b).
package hdfs

import (
	"fmt"
	"sort"

	"gflink/internal/costmodel"
	"gflink/internal/netsim"
	"gflink/internal/vclock"
)

// DefaultBlockSize is the classic HDFS block size.
const DefaultBlockSize = 128 << 20

// Config shapes a file system instance.
type Config struct {
	BlockSize   int64 // default DefaultBlockSize
	Replication int   // default 3, capped at node count
}

// FS is a simulated HDFS spanning the DataNodes 0..nodes-1 (colocated
// with the cluster's worker nodes, as in the paper's testbed).
type FS struct {
	clock *vclock.Clock
	disk  costmodel.Disk
	net   *netsim.Network
	cfg   Config
	disks []*vclock.Semaphore

	files map[string]*File
	// nextNode rotates block placement.
	nextNode int
}

// File is a NameNode directory entry.
type File struct {
	Name   string
	Size   int64
	blocks []block
}

type block struct {
	size     int64
	replicas []int
}

// New creates an empty file system over the nodes of net.
func New(clock *vclock.Clock, disk costmodel.Disk, net *netsim.Network, cfg Config) *FS {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > net.Nodes() {
		cfg.Replication = net.Nodes()
	}
	fs := &FS{clock: clock, disk: disk, net: net, cfg: cfg, files: make(map[string]*File)}
	for i := 0; i < net.Nodes(); i++ {
		fs.disks = append(fs.disks, vclock.NewSemaphore(clock, fmt.Sprintf("disk-%d", i), 1))
	}
	return fs
}

// Create registers a file of the given size with blocks placed
// round-robin, charging no time (dataset staging happens before the
// measured job, matching how HiBench pre-loads inputs). It replaces any
// existing file of the same name.
func (fs *FS) Create(name string, size int64) *File {
	if size < 0 {
		panic("hdfs: negative file size")
	}
	f := &File{Name: name, Size: size}
	remaining := size
	for remaining > 0 || len(f.blocks) == 0 {
		b := block{size: fs.cfg.BlockSize}
		if remaining < b.size {
			b.size = remaining
		}
		for r := 0; r < fs.cfg.Replication; r++ {
			b.replicas = append(b.replicas, (fs.nextNode+r)%fs.net.Nodes())
		}
		fs.nextNode = (fs.nextNode + 1) % fs.net.Nodes()
		f.blocks = append(f.blocks, b)
		remaining -= b.size
		if size == 0 {
			break
		}
	}
	fs.files[name] = f
	return f
}

// Open resolves a file by name.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q not found", name)
	}
	return f, nil
}

// Blocks returns the number of blocks in the file.
func (f *File) Blocks() int { return len(f.blocks) }

// Split describes a contiguous byte range of a file assigned to one
// reader task, with the nodes that hold a local replica of its first
// block (the locality hint Flink's scheduler uses).
type Split struct {
	File       *File
	Index      int
	Offset     int64
	Length     int64
	LocalNodes []int
}

// Splits partitions the file into n byte-balanced splits.
func (fs *FS) Splits(f *File, n int) []Split {
	if n <= 0 {
		n = 1
	}
	out := make([]Split, 0, n)
	per := f.Size / int64(n)
	off := int64(0)
	for i := 0; i < n; i++ {
		length := per
		if i == n-1 {
			length = f.Size - off
		}
		s := Split{File: f, Index: i, Offset: off, Length: length}
		if len(f.blocks) > 0 {
			bi := int(off / fs.cfg.BlockSize)
			if bi >= len(f.blocks) {
				bi = len(f.blocks) - 1
			}
			s.LocalNodes = append([]int(nil), f.blocks[bi].replicas...)
			sort.Ints(s.LocalNodes)
		}
		out = append(out, s)
		off += length
	}
	return out
}

// ReadSplit streams the split's bytes to node, blocking the calling
// process: disk time on the replica node, plus network transfer when no
// replica is local. It returns the number of bytes read.
func (fs *FS) ReadSplit(node int, s Split) int64 {
	if s.Length <= 0 {
		return 0
	}
	src := fs.pickReplica(node, s)
	fs.disks[src].Acquire(1)
	fs.clock.Sleep(fs.disk.ReadTime(s.Length))
	fs.disks[src].Release(1)
	if src != node {
		fs.net.Exchange("hdfs-read", []netsim.Flow{{Src: src, Dst: node, Bytes: s.Length}})
	}
	return s.Length
}

// pickReplica prefers a replica on node, else the first replica of the
// split's starting block (deterministic).
func (fs *FS) pickReplica(node int, s Split) int {
	for _, r := range s.LocalNodes {
		if r == node {
			return r
		}
	}
	if len(s.LocalNodes) > 0 {
		return s.LocalNodes[0]
	}
	return node
}

// Write streams n bytes from node into a new or existing file region,
// following the HDFS replication pipeline: a local disk write plus
// replication-1 remote copies (network + remote disk). It blocks the
// calling process for the pipeline duration.
func (fs *FS) Write(node int, name string, n int64) {
	if n <= 0 {
		return
	}
	// Local write.
	fs.disks[node].Acquire(1)
	fs.clock.Sleep(fs.disk.WriteTime(n))
	fs.disks[node].Release(1)
	// Replication pipeline.
	for r := 1; r < fs.cfg.Replication; r++ {
		peer := (node + r) % fs.net.Nodes()
		fs.net.Exchange("hdfs-replicate", []netsim.Flow{{Src: node, Dst: peer, Bytes: n}})
		fs.disks[peer].Acquire(1)
		fs.clock.Sleep(fs.disk.WriteTime(n))
		fs.disks[peer].Release(1)
	}
	if f, ok := fs.files[name]; ok {
		f.Size += n
		return
	}
	fs.Create(name, n)
}
