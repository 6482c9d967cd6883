package core

import (
	"fmt"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/obs"
)

// cacheModelEntry is one resident entry of the reference cache model.
type cacheModelEntry struct {
	key     CacheKey
	buf     *gpu.Buffer
	nominal int64
	refs    int
}

// cacheModel is the reference for one device's cache regions under the
// paper's two policies with the host tier off: per job, the resident
// entries in admission order, and a tally of the cache counters.
type cacheModel struct {
	stop bool
	cap  int64
	jobs [2][]*cacheModelEntry
	// hits, misses, inserts, rejects, stops and evictions, in the order
	// of cacheCounterNames.
	tally [6]int64
}

var cacheCounterNames = [6]string{"hits", "misses", "inserts", "rejects", "stop", "evictions"}

func (m *cacheModel) find(key CacheKey) *cacheModelEntry {
	for _, e := range m.jobs[key.JobID] {
		if e.key == key {
			return e
		}
	}
	return nil
}

func (m *cacheModel) used(job int) int64 {
	var n int64
	for _, e := range m.jobs[job] {
		n += e.nominal
	}
	return n
}

// insert predicts Insert: duplicates and oversized objects are
// rejected; otherwise StopWhenFull stops when the object does not fit,
// and FIFO evicts the oldest unpinned entries in admission order until
// it does, rejecting (with the evictions made so far standing) when
// only pinned entries are left.
func (m *cacheModel) insert(key CacheKey, buf *gpu.Buffer, nominal int64) bool {
	if m.find(key) != nil || nominal > m.cap {
		m.tally[3]++
		return false
	}
	for m.used(key.JobID)+nominal > m.cap {
		if m.stop {
			m.tally[4]++
			return false
		}
		victim := -1
		for i, e := range m.jobs[key.JobID] {
			if e.refs == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			m.tally[3]++
			return false
		}
		job := m.jobs[key.JobID]
		m.jobs[key.JobID] = append(job[:victim:victim], job[victim+1:]...)
		m.tally[5]++
	}
	m.jobs[key.JobID] = append(m.jobs[key.JobID], &cacheModelEntry{key: key, buf: buf, nominal: nominal, refs: 1})
	m.tally[2]++
	return true
}

// reclaim predicts Reclaim when want more bytes must come free: it
// evicts the oldest unpinned entry of the lowest job that has one until
// the victims' bytes reach want or no unpinned entry is left, whatever
// the policy.
func (m *cacheModel) reclaim(want int64) {
	for freed := int64(0); freed < want; {
		victim := m.oldestUnpinned()
		if victim == nil {
			return
		}
		freed += victim.nominal
		m.tally[5]++
	}
}

// oldestUnpinned removes and returns the oldest unpinned entry of the
// lowest job that has one, or nil.
func (m *cacheModel) oldestUnpinned() *cacheModelEntry {
	for job, entries := range m.jobs {
		for i, e := range entries {
			if e.refs == 0 {
				m.jobs[job] = append(entries[:i:i], entries[i+1:]...)
				return e
			}
		}
	}
	return nil
}

// unpinned reports whether any resident entry is unpinned.
func (m *cacheModel) unpinned() bool {
	for _, entries := range m.jobs {
		for _, e := range entries {
			if e.refs == 0 {
				return true
			}
		}
	}
	return false
}

// FuzzDeviceCache drives one device's cache regions (two jobs, a
// 100-byte region each) with random Acquire, Release, Insert, ReleaseJob
// and Reclaim sequences under FIFO and StopWhenFull, with the host tier
// off, and checks after every step that:
//   - Used never exceeds RegionCap;
//   - an acquired entry is never evicted;
//   - FIFO evicts in admission order, and Reclaim oldest first from the
//     lowest job ID up (the resident set matches the model's entry for
//     entry);
//   - after Reclaim(need) the device has need bytes free, or no unpinned
//     entry is left;
//   - the device's allocated bytes are the start value plus the
//     resident entries, so after ReleaseJob they are back to the start
//     value plus the other job's entries, and every rejected or evicted
//     buffer is freed exactly once (a double free panics);
//   - the cache.<event>.gpuN counters equal the model's tally.
//
// Each op is one byte (mod 5) followed by its arguments: a job byte
// (mod 2) and a block byte (mod 8) for Acquire, Release and Insert, then
// for Insert a size byte (nominal 1 + b mod 120, so some objects exceed
// the region); a job byte for ReleaseJob; and for Reclaim a byte b that
// sets need to the device's free bytes plus b, so that Reclaim must free
// b bytes.
func FuzzDeviceCache(f *testing.F) {
	// FIFO: fill, evict the oldest, miss it, hit the next, then insert
	// past a pinned entry and release the job with a pin held.
	fifo := []byte{2, 0, 0, 39, 1, 0, 0, 2, 0, 1, 39, 1, 0, 1, 2, 0, 2, 39, 0, 0, 0, 0, 0, 1, 2, 0, 3, 59, 3, 0}
	f.Add(byte(0), fifo)
	f.Add(byte(1), fifo)
	// Oversized and duplicate inserts, a full region, both jobs.
	f.Add(byte(0), []byte{2, 1, 5, 119, 2, 0, 0, 99, 2, 0, 0, 9, 2, 1, 1, 9, 2, 0, 4, 0, 3, 1, 0, 1, 1})
	// Everything pinned: FIFO rejects after evicting what it can.
	f.Add(byte(0), []byte{2, 0, 0, 29, 2, 0, 1, 29, 1, 0, 0, 2, 0, 2, 29, 2, 0, 3, 69, 3, 0, 3, 1})
	// Two entries per job, all released; Reclaim needs 50 bytes and
	// takes job 0's two and job 1's oldest. Then two more for job 0 and
	// one for job 1, with job 0's newer one kept pinned: Reclaim needs 90
	// bytes, takes the other three, across both jobs, and stops with the
	// pinned one left.
	reclaim := []byte{
		2, 0, 0, 19, 2, 0, 1, 19, 2, 1, 0, 29, 2, 1, 1, 29,
		1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 4, 50,
		2, 0, 0, 19, 2, 0, 1, 19, 2, 1, 0, 29, 1, 0, 0, 1, 1, 0, 4, 90, 4, 0,
	}
	f.Add(byte(0), reclaim)
	f.Add(byte(1), reclaim)
	f.Fuzz(func(t *testing.T, policy byte, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		pol := EvictFIFO
		if policy%2 == 1 {
			pol = StopWhenFull
		}
		g := New(Config{
			Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
			GPUsPerWorker:    1,
			CacheBytesPerJob: 100,
			CachePolicy:      pol,
		})
		var err error
		g.Run(func() { err = runCacheOps(g, pol, ops) })
		if err != nil {
			t.Fatal(err)
		}
	})
}

// runCacheOps replays ops against device 0 of g and the reference
// model, returning the first property violation.
func runCacheOps(g *GFlink, pol CachePolicy, ops []byte) error {
	mem := g.Manager(0).Streams.Memory(0)
	dev := mem.Device()
	model := &cacheModel{stop: pol == StopWhenFull, cap: mem.RegionCap()}
	start := dev.UsedBytes()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// Model jobs are 0 and 1; the manager sees them as jobs 1 and 2.
	jobKey := func(job, block int) CacheKey { return CacheKey{JobID: job, Block: block} }
	managerKey := func(k CacheKey) CacheKey { return CacheKey{JobID: k.JobID + 1, Block: k.Block} }
	check := func(step int) error {
		var resident int64
		for job := range model.jobs {
			used := mem.Used(job + 1)
			if used > mem.RegionCap() {
				return fmt.Errorf("step %d: job %d uses %d bytes of a %d-byte region", step, job, used, mem.RegionCap())
			}
			if want := model.used(job); used != want || mem.Entries(job+1) != len(model.jobs[job]) {
				return fmt.Errorf("step %d: job %d holds %d entries (%d bytes), model %d entries (%d bytes)",
					step, job, mem.Entries(job+1), used, len(model.jobs[job]), want)
			}
			for _, e := range model.jobs[job] {
				if mem.CachedBytes([]CacheKey{managerKey(e.key)}) != e.nominal {
					if e.refs > 0 {
						return fmt.Errorf("step %d: acquired entry %+v was evicted", step, e.key)
					}
					return fmt.Errorf("step %d: entry %+v is gone; %v did not evict in admission order", step, e.key, pol)
				}
				resident += e.nominal
			}
		}
		if got := dev.UsedBytes(); got != start+resident {
			return fmt.Errorf("step %d: device holds %d bytes, want %d at start plus %d resident", step, got, start, resident)
		}
		for i, name := range cacheCounterNames {
			key := fmt.Sprintf("cache.%s.gpu%d", name, dev.ID)
			if got := g.Obs.Metrics().Get(key); got != model.tally[i] {
				return fmt.Errorf("step %d: %s = %d, model counted %d", step, key, got, model.tally[i])
			}
		}
		return nil
	}
	for step := 0; len(ops) > 0; step++ {
		switch next() % 5 {
		case 0: // Acquire
			key := jobKey(next()%2, next()%8)
			buf, hit := mem.Acquire(managerKey(key))
			e := model.find(key)
			if hit != (e != nil) {
				return fmt.Errorf("step %d: Acquire(%+v) hit=%v, model resident=%v", step, key, hit, e != nil)
			}
			if e == nil {
				model.tally[1]++
				break
			}
			if buf != e.buf {
				return fmt.Errorf("step %d: Acquire(%+v) returned another buffer than the one inserted", step, key)
			}
			e.refs++
			model.tally[0]++
		case 1: // Release
			key := jobKey(next()%2, next()%8)
			mem.Release(managerKey(key))
			if e := model.find(key); e != nil && e.refs > 0 {
				e.refs--
			}
		case 2: // Insert
			key := jobKey(next()%2, next()%8)
			nominal := int64(1 + next()%120)
			buf, err := dev.Malloc(nominal, 0)
			if err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			want := model.insert(key, buf, nominal)
			if got := mem.Insert(managerKey(key), buf, nominal); got != want {
				return fmt.Errorf("step %d: Insert(%+v, %d) = %v, model %v", step, key, nominal, got, want)
			}
			if !want {
				dev.Free(buf)
			}
		case 3: // ReleaseJob, after the job's work drops its pins
			job := next() % 2
			for _, e := range model.jobs[job] {
				for ; e.refs > 0; e.refs-- {
					mem.Release(managerKey(e.key))
				}
			}
			mem.ReleaseJob(job + 1)
			model.jobs[job] = nil
		case 4: // Reclaim
			want := int64(next())
			need := dev.FreeBytes() + want
			mem.Reclaim(need)
			model.reclaim(want)
			if dev.FreeBytes() < need && model.unpinned() {
				return fmt.Errorf("step %d: Reclaim(%d) left %d bytes free with an unpinned entry resident", step, need, dev.FreeBytes())
			}
		}
		if err := check(step); err != nil {
			return err
		}
	}
	for job := range model.jobs {
		for _, e := range model.jobs[job] {
			for ; e.refs > 0; e.refs-- {
				mem.Release(managerKey(e.key))
			}
		}
		mem.ReleaseJob(job + 1)
	}
	if got := dev.UsedBytes(); got != start {
		return fmt.Errorf("after releasing every job the device holds %d bytes, want the start value %d", got, start)
	}
	return nil
}

// TestReclaimAllocatesNothing pins a tierless Reclaim at zero heap
// allocations once the cache's free lists are warm. Each cycle caches
// two entries for each of two jobs, releases them, and makes one
// Reclaim take three victims across both jobs and a second take the
// last one.
func TestReclaimAllocatesNothing(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 100,
	})
	mem := g.Manager(0).Streams.Memory(0)
	dev := mem.Device()
	evictions := g.Obs.Metrics().Counter(obs.CacheEvictions, dev.ID)
	var first int64
	var err error // set inside g.Run, checked after it
	cycle := func() {
		for _, e := range []struct {
			job, block int
			nominal    int64
		}{{1, 0, 20}, {1, 1, 20}, {2, 0, 30}, {2, 1, 30}} {
			buf, merr := dev.MallocReserve(e.nominal, 0)
			if merr != nil {
				err = merr
				return
			}
			dev.MallocFill(buf, 0)
			key := CacheKey{JobID: e.job, Block: e.block}
			if !mem.Insert(key, buf, e.nominal) {
				err = fmt.Errorf("Insert(%+v) rejected", key)
				return
			}
			mem.Release(key)
		}
		before := evictions.Get()
		mem.Reclaim(dev.FreeBytes() + 50)
		first = evictions.Get() - before
		mem.Reclaim(dev.FreeBytes() + 30)
	}
	var allocs float64
	g.Run(func() {
		for i := 0; i < 16; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(1000, cycle)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || mem.Entries(1)+mem.Entries(2) != 0 {
		t.Fatalf("first Reclaim took %d victims and %d entries stayed, want 3 and 0", first, mem.Entries(1)+mem.Entries(2))
	}
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per cycle at steady state, want 0", allocs)
	}
}
