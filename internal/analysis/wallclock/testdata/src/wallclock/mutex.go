package wallclock

import "sync"

// A mutex in any position is reported at the type's use: state needs no
// lock when one process runs at a time.

type guarded struct {
	mu sync.Mutex // want `sync\.Mutex in simulator code`
	n  int
}

type embedded struct {
	sync.Mutex // want `sync\.Mutex in simulator code`
	n          int
}

var registryMu sync.RWMutex // want `sync\.RWMutex in simulator code`

func local() {
	var mu sync.Mutex // want `sync\.Mutex in simulator code`
	mu.Lock()
	mu.Unlock()
}

func param(mu *sync.Mutex) { // want `sync\.Mutex in simulator code`
	mu.Lock()
	defer mu.Unlock()
}

func literal() *sync.RWMutex { // want `sync\.RWMutex in simulator code`
	return &sync.RWMutex{} // want `sync\.RWMutex in simulator code`
}

// WaitGroup and Once carry no lock a process could hold across a
// blocking call, so they stay legal.
var (
	setup sync.Once
	done  sync.WaitGroup
)

func okSync() {
	setup.Do(func() {})
	done.Add(1)
	done.Done()
	done.Wait()
}
