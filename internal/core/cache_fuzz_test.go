package core

import (
	"bytes"
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
// and Reclaim sequences under FIFO and StopWhenFull. With the host tier
// off (bit 1 of the policy byte clear) it checks after every step that:
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
// With bit 1 set, a 150-byte host tier is armed, so victims demote,
// spill and come back on Acquire; runTierOps then checks the properties
// that need no model of the tier.
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
	// Host tier, FIFO: four 60-byte blocks evict one another into the
	// tier, which spills block 0. Blocks 0, 1 and 2 each reload from the
	// spill disk, each reload's Insert (and one Reclaim) demoting the
	// resident block, and the job is released with block 2 pinned.
	f.Add(byte(2), []byte{
		2, 0, 0, 59, 1, 0, 0, 2, 0, 1, 59, 1, 0, 1, 2, 0, 2, 59, 1, 0, 2, 2, 0, 3, 59, 1, 0, 3,
		0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 4, 100, 0, 0, 2, 3, 0,
	})
	// Host tier, StopWhenFull: only Reclaim demotes; the third demotion
	// spills block 0, which reloads, and block 1's promotion then finds
	// the region full and degrades to a miss.
	f.Add(byte(3), []byte{
		2, 0, 0, 59, 1, 0, 0, 4, 200, 2, 0, 1, 59, 1, 0, 1, 4, 200, 2, 0, 2, 59, 1, 0, 2, 4, 200,
		0, 0, 0, 1, 0, 0, 0, 0, 1, 3, 0,
	})
	f.Fuzz(func(t *testing.T, policy byte, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		pol := EvictFIFO
		if policy%2 == 1 {
			pol = StopWhenFull
		}
		tier := policy&2 != 0
		cfg := Config{
			Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
			GPUsPerWorker:    1,
			CacheBytesPerJob: 100,
			CachePolicy:      pol,
		}
		if tier {
			cfg.HostTierBytes = 150
		}
		g := New(cfg)
		var err error
		g.Run(func() {
			if tier {
				err = runTierOps(g, ops)
			} else {
				err = runCacheOps(g, pol, ops)
			}
		})
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

// tierBytes is key's byte pattern of length n: its first byte differs
// from every other key's, and the rest vary with the index.
func tierBytes(key CacheKey, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(key.JobID<<4|key.Block) + byte(i)*0x9d
	}
	return b
}

// runTierOps replays ops against device 0 of g, whose host tier is
// armed, with runCacheOps' encoding. Insert writes a key-unique pattern
// of 1 + nominal%8 bytes. It returns the first violation of:
//   - every Acquire hit returns exactly its key's pattern, at the length
//     the resident entry was inserted with;
//   - Used never exceeds RegionCap, and the tier's resident pages never
//     exceed its capacity;
//   - the device's allocated bytes are the start value plus the resident
//     entries: a tier page holds no device bytes;
//   - no buffer backs two entries or pages at once, so a detached
//     buffer is never reattached twice;
//   - after Reclaim(need) the device has need bytes free, or every
//     resident entry is pinned;
//   - after ReleaseJob the job has no entry and no tier page, and after
//     releasing every job the device is back at its start value.
func runTierOps(g *GFlink, ops []byte) error {
	mem := g.Manager(0).Streams.Memory(0)
	dev := mem.Device()
	start := dev.UsedBytes()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	key := func(job, block int) CacheKey { return CacheKey{JobID: job + 1, Block: block} }
	// unpin drops every pin a job's entries hold, as its finished work
	// would.
	unpin := func(job int) {
		if r, ok := mem.regions[job+1]; ok {
			for e := r.head; e != nil; e = e.next {
				for n := e.refs; n > 0; n-- {
					mem.Release(e.key)
				}
			}
		}
	}
	check := func(step int) error {
		owner := make(map[*gpu.Buffer]CacheKey)
		claim := func(b *gpu.Buffer, k CacheKey) error {
			if o, dup := owner[b]; dup {
				return fmt.Errorf("step %d: one buffer backs both %+v and %+v", step, o, k)
			}
			owner[b] = k
			return nil
		}
		var resident int64
		for job := 0; job < 2; job++ {
			used := mem.Used(job + 1)
			if used > mem.RegionCap() {
				return fmt.Errorf("step %d: job %d uses %d bytes of a %d-byte region", step, job, used, mem.RegionCap())
			}
			resident += used
			if r, ok := mem.regions[job+1]; ok {
				for e := r.head; e != nil; e = e.next {
					if err := claim(e.buf, e.key); err != nil {
						return err
					}
				}
			}
		}
		if got := dev.UsedBytes(); got != start+resident {
			return fmt.Errorf("step %d: device holds %d bytes, want %d at start plus %d resident", step, got, start, resident)
		}
		var hostUsed int64
		pages := 0
		for _, l := range [...]*entryList{&mem.hostList, &mem.spillList} {
			for p := l.head; p != nil; p = p.next {
				if err := claim(p.buf, p.key); err != nil {
					return err
				}
				if !p.spilled {
					hostUsed += p.nominal
				}
				pages++
			}
		}
		if hostUsed != mem.hostUsed || hostUsed > mem.HostTierBytes() || pages != len(mem.hostPages) {
			return fmt.Errorf("step %d: %d tier pages holding %d resident bytes (tier counts %d of %d, maps %d pages)",
				step, pages, hostUsed, mem.hostUsed, mem.HostTierBytes(), len(mem.hostPages))
		}
		return nil
	}
	for step := 0; len(ops) > 0; step++ {
		switch next() % 5 {
		case 0: // Acquire
			k := key(next()%2, next()%8)
			if buf, hit := mem.Acquire(k); hit {
				want := tierBytes(k, 1+int(mem.CachedBytes([]CacheKey{k})%8))
				if got := buf.Bytes(); !bytes.Equal(got, want) {
					return fmt.Errorf("step %d: Acquire(%+v) returned bytes %v, want %v", step, k, got, want)
				}
			}
		case 1: // Release
			mem.Release(key(next()%2, next()%8))
		case 2: // Insert
			k := key(next()%2, next()%8)
			nominal := int64(1 + next()%120)
			buf, err := dev.Malloc(nominal, 1+int(nominal%8))
			if err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			copy(buf.Bytes(), tierBytes(k, len(buf.Bytes())))
			if !mem.Insert(k, buf, nominal) {
				dev.Free(buf)
			}
		case 3: // ReleaseJob, after the job's work drops its pins
			job := next() % 2
			unpin(job)
			mem.ReleaseJob(job + 1)
			if n, p := mem.Entries(job+1), mem.HostPages(job+1); n != 0 || p != 0 {
				return fmt.Errorf("step %d: ReleaseJob(%d) left %d entries and %d tier pages", step, job+1, n, p)
			}
		case 4: // Reclaim
			need := dev.FreeBytes() + int64(next())
			mem.Reclaim(need)
			if dev.FreeBytes() < need {
				for job := 1; job <= 2; job++ {
					if r, ok := mem.regions[job]; ok && oldestUnpinned(r) != nil {
						return fmt.Errorf("step %d: Reclaim(%d) left %d bytes free with an unpinned entry resident", step, need, dev.FreeBytes())
					}
				}
			}
		}
		if err := check(step); err != nil {
			return err
		}
	}
	for job := 0; job < 2; job++ {
		unpin(job)
		mem.ReleaseJob(job + 1)
	}
	if got, pages := dev.UsedBytes(), len(mem.hostPages); got != start || pages != 0 {
		return fmt.Errorf("after releasing every job the device holds %d bytes (want %d) and the tier %d pages", got, start, pages)
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
