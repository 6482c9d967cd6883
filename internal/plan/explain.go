package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Explain renders the plan as text: the planning options, the stage
// list after chaining with the device each Either node runs on, and —
// when the graph has executed — the simulated time each stage actually
// took. Explain is read-only with respect to simulation state: nothing
// touches the clock.
func (gr *Graph) Explain() string {
	st := gr.st
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q (mode=%s, chaining=%s)\n",
		gr.name, st.opts.Mode, onOff(!st.opts.DisableChaining))

	nodes := gr.nodes
	if !st.opts.DisableChaining {
		nodes = fuseChains(nodes)
	}
	if len(nodes) > 0 {
		b.WriteString("stages:\n")
		for i, n := range nodes {
			fmt.Fprintf(&b, "  %2d. %-12s %s", i, n.kind, n.name)
			if n.chainLen > 0 {
				fmt.Fprintf(&b, " [fused x%d]", n.chainLen)
			}
			if n.kind == kEither {
				fmt.Fprintf(&b, " [placed %s]", st.opts.Mode.Device())
			}
			b.WriteByte('\n')
		}
	}

	if len(st.actuals) > 0 {
		b.WriteString("measured:\n")
		names := slices.Clone(st.actualOrder)
		sort.Strings(names)
		for _, name := range names {
			a := st.actuals[name]
			fmt.Fprintf(&b, "  %-40s %v", name, a.total)
			if a.runs > 1 {
				fmt.Fprintf(&b, " (%d runs)", a.runs)
			}
			b.WriteByte('\n')
		}
	}

	// Transfer-channel volume: the per-device xfer.{h2d,d2h}.bytes.gpuN
	// counters the stream workers increment on every DMA. Snapshot order
	// is sorted, so this section is deterministic.
	var xfers []string
	for _, m := range st.g.Obs.Metrics().Snapshot() {
		if strings.HasPrefix(m.Name, "xfer.") {
			xfers = append(xfers, fmt.Sprintf("  %-24s %d\n", m.Name, m.Value))
		}
	}
	if len(xfers) > 0 {
		b.WriteString("transfers:\n")
		for _, line := range xfers {
			b.WriteString(line)
		}
	}
	return b.String()
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
