package bench

import (
	"fmt"

	"gflink/internal/core"
	"gflink/internal/obs"
)

// deployObserver, when non-nil, sees every deployment paperSpec builds.
// RunTraced installs it around one experiment run to collect each
// deployment's tracer; experiments run one at a time (the bench CLI and
// the test harness are sequential), so a plain package variable is
// enough — no locking, no goroutines. Under RunPoints the observer
// still runs sequentially: each point collects its deployments
// privately and RunPoints replays them here, in declared point order,
// after the barrier.
var deployObserver func(*core.GFlink)

// observeDeploy feeds one deployment to the (sequential-only) observer.
// paperSpec wires it in as Spec.OnBuild on the serial path; RunPoints
// replays collected deployments through it in declared order.
func observeDeploy(g *core.GFlink) {
	if deployObserver != nil {
		deployObserver(g)
	}
}

// RunTraced runs one experiment and returns its table together with a
// TraceProcess per deployment the run built, named "<id>#<n>" in build
// order. Tracing only reads the virtual clock, so the table is
// byte-identical to an untraced run.
func RunTraced(e *Experiment) (*Table, []obs.TraceProcess) {
	var procs []obs.TraceProcess
	deployObserver = func(g *core.GFlink) {
		procs = append(procs, obs.TraceProcess{
			Name:   fmt.Sprintf("%s#%d", e.ID, len(procs)),
			Tracer: g.Obs.Tracer(),
		})
	}
	defer func() { deployObserver = nil }()
	return e.Run(), procs
}
