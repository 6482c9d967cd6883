package bench

import (
	"sync"

	"gflink/internal/core"
)

// RunPoints executes n independent sweep points concurrently — one
// goroutine per point, spread across the OS threads GOMAXPROCS allows —
// and returns their results in declared (index) order. Each point must
// be self-contained: it builds its own deployment(s), and every
// deployment owns an isolated vclock.Clock, so points share no
// simulated state and every point's virtual-time result is
// deterministic regardless of how the host interleaves them.
//
// The onBuild argument passed to run replaces the package-global
// deployObserver hook for that point: the global hook is unsynchronized
// by design (serial experiments run one at a time), so parallel points
// must not touch it mid-run. RunPoints collects each point's
// deployments privately and replays them to the global hook in declared
// point order after the barrier, which keeps RunTraced's "<id>#<n>"
// process numbering — and therefore the exported traces — byte-for-byte
// independent of GOMAXPROCS.
func RunPoints[T any](n int, run func(i int, onBuild func(*core.GFlink)) T) []T {
	out := make([]T, n)
	builds := make([][]*core.GFlink, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		// Host-side fan-out, not a simulated process: each point owns an
		// isolated vclock.Clock, so there is no virtual clock for these
		// goroutines to register with.
		//gflink:allow-go host-side sweep fan-out; each point runs its own isolated clock
		go func() {
			defer wg.Done()
			out[i] = run(i, func(g *core.GFlink) {
				builds[i] = append(builds[i], g)
			})
		}()
	}
	wg.Wait()
	for _, gs := range builds {
		for _, g := range gs {
			observeDeploy(g)
		}
	}
	return out
}
