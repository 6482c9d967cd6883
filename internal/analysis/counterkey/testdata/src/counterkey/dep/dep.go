// Fixture dependency for counterkey's cross-package fact flow:
// KeyedCount roots its counter name at a parameter, so callers in
// dependent packages inherit the grammar obligation via a CounterKey
// fact.
package dep

import (
	"fmt"

	"gflink/internal/obs"
)

// KeyedCount bumps name for one worker; name must be a valid key
// prefix at every caller.
func KeyedCount(r *obs.Registry, name string, worker int) {
	r.Counter(fmt.Sprintf("%s.w%d", name, worker)).Add(1)
}
