package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// countingOracle counts deployments and fails each at once, so a soak
// costs nothing but the memo's bookkeeping.
type countingOracle struct {
	core.ExactOracle
	n atomic.Int64
}

func (o *countingOracle) Deploy(*core.GatingController, *trace.Trace, *dataset.TraceTelemetry,
	dataset.Config, *power.Model, core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	o.n.Add(1)
	return nil, errors.New("counted")
}

// TestPristineDeploysEachTraceOnce hammers Pristine from many goroutines:
// each trace must be deployed exactly once per Soaker, or a run's event
// log would hold a duplicate deployment's events.
func TestPristineDeploysEachTraceOnce(t *testing.T) {
	const traces, callers, rounds = 3, 8, 300
	for r := 0; r < rounds; r++ {
		o := &countingOracle{}
		s := NewSoaker(Workload{Traces: make([]*trace.Trace, traces), Tel: make([]*dataset.TraceTelemetry, traces), Oracle: o},
			core.DefaultGuardrail())
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < 4*traces; k++ {
					s.Pristine(nil, (c+k)%traces)
				}
			}(c)
		}
		wg.Wait()
		if n := o.n.Load(); n != traces {
			t.Fatalf("round %d: %d deployments for %d traces", r, n, traces)
		}
	}
}
