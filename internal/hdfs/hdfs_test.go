package hdfs

import (
	"slices"
	"testing"
	"testing/quick"

	"gflink/internal/costmodel"
	"gflink/internal/netsim"
	"gflink/internal/vclock"
)

func newFS(nodes int, cfg Config) (*vclock.Clock, *FS) {
	c := vclock.New()
	net := netsim.New(c, costmodel.DefaultNet, nodes)
	return c, New(c, costmodel.DefaultDisk, net, cfg)
}

func TestCreateAndOpen(t *testing.T) {
	c, fs := newFS(4, Config{BlockSize: 1 << 20, Replication: 2})
	c.Run(func() {
		f := fs.Create("data", 3<<20+5)
		if f.Blocks() != 4 {
			t.Errorf("blocks = %d, want 4", f.Blocks())
		}
		got, err := fs.Open("data")
		if err != nil || got != f {
			t.Errorf("Open = %v, %v", got, err)
		}
		if _, err := fs.Open("missing"); err == nil {
			t.Error("Open(missing) succeeded")
		}
	})
}

func TestEmptyFileHasOneBlock(t *testing.T) {
	c, fs := newFS(2, Config{})
	c.Run(func() {
		f := fs.Create("empty", 0)
		if f.Blocks() != 1 {
			t.Errorf("empty file blocks = %d, want 1", f.Blocks())
		}
	})
}

func TestSplitsCoverFile(t *testing.T) {
	c, fs := newFS(4, Config{BlockSize: 1 << 20})
	c.Run(func() {
		f := fs.Create("d", 10<<20+123)
		splits := fs.Splits(f, 7)
		if len(splits) != 7 {
			t.Fatalf("got %d splits", len(splits))
		}
		var total int64
		var off int64
		for _, s := range splits {
			if s.Offset != off {
				t.Errorf("split %d offset %d, want %d", s.Index, s.Offset, off)
			}
			total += s.Length
			off += s.Length
		}
		if total != f.Size {
			t.Errorf("splits cover %d bytes, file is %d", total, f.Size)
		}
	})
}

func TestLocalReadCostsDiskOnly(t *testing.T) {
	c, fs := newFS(3, Config{BlockSize: 1 << 20, Replication: 3})
	d := costmodel.DefaultDisk
	end := c.Run(func() {
		f := fs.Create("d", 1<<20)
		s := fs.Splits(f, 1)[0]
		// Replication 3 on 3 nodes: every node has a replica.
		if !slices.Contains(s.LocalNodes, 2) {
			t.Fatal("expected local replica on node 2")
		}
		fs.ReadSplit(2, s)
	})
	if want := d.ReadTime(1 << 20); end != want {
		t.Errorf("local read took %v, want %v", end, want)
	}
}

func TestRemoteReadAddsNetwork(t *testing.T) {
	c, fs := newFS(4, Config{BlockSize: 1 << 20, Replication: 1})
	d := costmodel.DefaultDisk
	n := costmodel.DefaultNet
	end := c.Run(func() {
		f := fs.Create("d", 1<<20)
		s := fs.Splits(f, 1)[0]
		// Find a node with no replica.
		remote := -1
		for node := 0; node < 4; node++ {
			if !slices.Contains(s.LocalNodes, node) {
				remote = node
				break
			}
		}
		if remote < 0 {
			t.Fatal("no remote node found")
		}
		fs.ReadSplit(remote, s)
	})
	if want := d.ReadTime(1<<20) + n.TransferTime(1<<20); end != want {
		t.Errorf("remote read took %v, want %v", end, want)
	}
}

func TestWriteReplicationPipeline(t *testing.T) {
	c, fs := newFS(3, Config{Replication: 3})
	d := costmodel.DefaultDisk
	n := costmodel.DefaultNet
	end := c.Run(func() {
		fs.Write(0, "out", 1<<20)
	})
	want := 3*d.WriteTime(1<<20) + 2*n.TransferTime(1<<20)
	if end != want {
		t.Errorf("replicated write took %v, want %v", end, want)
	}
	f, err := fs.Open("out")
	if err != nil || f.Size != 1<<20 {
		t.Errorf("written file: %+v, %v", f, err)
	}
}

func TestWriteAppendsToExisting(t *testing.T) {
	c, fs := newFS(2, Config{Replication: 1})
	c.Run(func() {
		fs.Write(0, "out", 100)
		fs.Write(1, "out", 50)
		f, err := fs.Open("out")
		if err != nil || f.Size != 150 {
			t.Errorf("appended size = %v, err %v", f, err)
		}
	})
}

func TestDiskContentionSerializesReads(t *testing.T) {
	c, fs := newFS(1, Config{BlockSize: 1 << 20, Replication: 1})
	d := costmodel.DefaultDisk
	end := c.Run(func() {
		f := fs.Create("d", 2<<20)
		splits := fs.Splits(f, 2)
		g := vclock.NewGroup(c)
		for _, s := range splits {
			s := s
			g.Go("r", func() { fs.ReadSplit(0, s) })
		}
		g.Wait()
	})
	if want := 2 * d.ReadTime(1<<20); end != want {
		t.Errorf("contended reads took %v, want %v", end, want)
	}
}

// Property: splits always tile the file exactly, for any size and count.
func TestSplitTilingProperty(t *testing.T) {
	f := func(size uint32, parts uint8) bool {
		c, fs := newFS(3, Config{BlockSize: 4096})
		ok := true
		c.Run(func() {
			file := fs.Create("p", int64(size%(1<<24)))
			n := int(parts%16) + 1
			splits := fs.Splits(file, n)
			var total, off int64
			for _, s := range splits {
				if s.Offset != off || s.Length < 0 {
					ok = false
				}
				total += s.Length
				off += s.Length
			}
			if total != file.Size {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	c, fs := newFS(2, Config{Replication: 5})
	c.Run(func() {
		f := fs.Create("d", 100)
		s := fs.Splits(f, 1)[0]
		if len(s.LocalNodes) != 2 {
			t.Errorf("replicas = %v, want 2 nodes", s.LocalNodes)
		}
	})
}
