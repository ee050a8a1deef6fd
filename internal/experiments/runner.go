package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/sched"
)

// run fans jobs across the driver's worker pool and collapses the results
// in submission order, failing on the first job error. Every driver routes
// its (design × engine × config) fan-out through here instead of a
// hand-rolled serial loop; because the engines are deterministic and jobs
// are independent, any worker count produces identical tables. Drivers want
// all-or-nothing results, so the batch fails fast: one job error stops
// scheduling instead of burning the rest of the suite.
//
// The executor is Options.Pool when the caller wired a shared service-style
// pool (one flexbench run = one pool, so device history and admission span
// every driver), else a throwaway pool sized by Options.Workers/FPGAs.
// Jobs that run the FLEX engine declare their device phase with
// batch.AcquireDevice and contend on the pool's boards, while CPU-only jobs
// overlap freely. Per-batch pool statistics (device wait vs CPU overlap —
// deltas even on a shared pool) accumulate into Options.Stats when set —
// never into the returned values, which stay byte-identical across
// workers × FPGAs × cache configurations.
func run[T any](opt Options, jobs []batch.Job[T]) ([]T, error) {
	pool := opt.Pool
	if pool == nil {
		pool = batch.NewPool(batch.PoolConfig{Workers: opt.Workers, FPGAs: opt.FPGAs})
		defer pool.Close()
	}
	// Drivers submit uniform batches: Options.Priority stamps every job's
	// class so a whole flexbench run schedules below or above concurrent
	// pool traffic.
	var classes []sched.Class
	if opt.Priority != 0 {
		classes = make([]sched.Class, len(jobs))
		for i := range classes {
			classes[i] = sched.Class{Priority: opt.Priority}
		}
	}
	results, st, err := batch.Run(context.Background(), pool, jobs, classes, true, nil)
	if opt.Stats != nil {
		opt.Stats.Add(st)
	}
	if err != nil {
		return nil, err
	}
	return batch.Values(results)
}

// newService builds the flex.Service one call of a Service-driven driver
// (sharded, sched, eco) submits its jobs to: Options.Workers and
// Options.FPGAs size it, Options.ServiceOptions follow, then extra. The
// caller closes it. Every call gets a fresh service, so no outcome cached
// by one call can serve another and each driver call's tables stay
// byte-identical across repetitions.
func (o Options) newService(extra ...flex.ServiceOption) *flex.Service {
	opts := []flex.ServiceOption{flex.WithWorkers(o.Workers), flex.WithFPGAs(o.FPGAs)}
	opts = append(opts, o.ServiceOptions...)
	return flex.NewService(append(opts, extra...)...)
}

// submit runs jobs on svc as one fail-fast batch and returns the results in
// submission order, failing on the first job error. The batch's scheduling
// statistics accumulate into Options.Stats when set; board acquisitions
// come from the service's counters, so they are exact while one driver at a
// time uses svc.
func submit(opt Options, svc *flex.Service, jobs []flex.BatchJob) ([]flex.BatchResult, error) {
	before := svc.Stats()
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{FailFast: true})
	if sum != nil && opt.Stats != nil {
		after := svc.Stats()
		opt.Stats.Add(batch.Stats{
			Jobs: len(jobs), Errors: sum.Errors, Skipped: sum.Skipped, Workers: sum.Workers,
			Wall: sum.Wall, WorkWall: sum.WorkWall, SchedWait: sum.SchedWait,
			FPGAs: sum.FPGAs, DeviceWait: sum.DeviceWait, DeviceHold: sum.DeviceHold,
			DeviceAcquires:     after.DeviceAcquires - before.DeviceAcquires,
			DeviceContended:    after.DeviceContended - before.DeviceContended,
			DeviceReconfigs:    sum.Reconfigs,
			DeviceReconfigTime: after.ReconfigTime - before.ReconfigTime,
		})
	}
	if err != nil {
		return nil, err
	}
	for _, r := range sum.Results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return sum.Results, nil
}

// shardHalo maps a driver's seam window in rows (0 = none) onto
// BatchJob.ShardHalo, where 0 would mean the service default.
func shardHalo(rows int) int {
	if rows <= 0 {
		return -1
	}
	return rows
}

// generate builds spec at scale, through the shared layout cache when the
// caller wired one (Options.Layouts). Cached layouts are shared across
// drivers — engines legalize clones, so the pointer is safe to share.
func (o Options) generate(spec gen.Spec, scale float64) (*model.Layout, error) {
	l, err := gen.Cached(o.Layouts, spec, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return l, nil
}

// runOnDevice runs f while holding one modeled accelerator board — the
// declaration every FLEX-engine (core.Legalize) call site inside a driver
// job makes, so new drivers opt in with one wrapper instead of hand-rolled
// acquire/release boilerplate. CPU-only measurement code must not use it.
func runOnDevice[T any](ctx context.Context, f func() (T, error)) (T, error) {
	release, err := batch.AcquireDevice(ctx)
	if err != nil {
		var zero T
		return zero, err
	}
	defer release()
	return f()
}

// lazyLayouts returns one memoized generator per spec for drivers whose
// jobs share a design across several engine/config variants: each design is
// generated at most once per call, on first use, by whichever job reaches
// it first — and at most once per process when a shared layout cache is
// wired (engines legalize clones, so sharing the pointer is safe). Compared
// to generating up front this keeps only touched designs resident and lets
// a fail-fast batch stop before generating the rest of the suite; compared
// to generating per job it never duplicates work.
func lazyLayouts(opt Options, specs []gen.Spec, scale float64) []func() (*model.Layout, error) {
	out := make([]func() (*model.Layout, error), len(specs))
	for i, spec := range specs {
		out[i] = sync.OnceValues(func() (*model.Layout, error) {
			return opt.generate(spec, scale)
		})
	}
	return out
}

// perSpec builds one job per design spec — generate at scale on the worker
// (through the shared cache when wired), then measure — and runs them
// through the pool.
func perSpec[T any](opt Options, specs []gen.Spec, scale float64, measure func(spec gen.Spec, l *model.Layout) (T, error)) ([]T, error) {
	jobs := make([]batch.Job[T], len(specs))
	for i, spec := range specs {
		jobs[i] = func(context.Context) (T, error) {
			l, err := opt.generate(spec, scale)
			if err != nil {
				var zero T
				return zero, err
			}
			return measure(spec, l)
		}
	}
	return run(opt, jobs)
}
