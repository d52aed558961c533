package parallel

import "clustergate/internal/obs"

// Options harden a fan-out beyond the plain ForEach/Map semantics. The
// zero value behaves exactly like ForEach/Map with all cores.
//
// Retries make transient failures (injected faults, flaky I/O) invisible
// to callers: a task is re-run up to Retries extra times before its error
// counts. Because every task in this repo is a pure function of its
// index, a retried task recomputes the identical result, so retries never
// perturb output — the determinism contract of the package extends to
// the failure path.
type Options struct {
	// Workers bounds the pool as in ForEach: 0 selects all cores, 1 the
	// serial path.
	Workers int
	// Retries is the number of additional attempts after a failed one.
	Retries int
}

// tasksRetried counts attempts re-run after a failure, for run manifests.
var tasksRetried = obs.NewCounter("parallel.retries")

// ForEachOpt runs fn(i) for every i in [0, n) with the pool and retry
// behaviour of opts. Error semantics match ForEach — the lowest failing
// index's *final* error is returned — so a fan-out whose transient
// failures are all absorbed by retries returns nil and is byte-identical
// to a failure-free run.
func ForEachOpt(n int, opts Options, fn func(i int) error) error {
	return ForEach(opts.Workers, n, func(i int) error {
		for attempt := 0; ; attempt++ {
			err := fn(i)
			if err == nil || attempt >= opts.Retries {
				return err
			}
			tasksRetried.Inc()
		}
	})
}

// MapOpt runs fn(i) for every i in [0, n) with the pool and retry
// behaviour of opts and returns the results in index order.
func MapOpt[T any](n int, opts Options, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachOpt(n, opts, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
