package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/shard"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request share Req; Parent indexes the enclosing span
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name, req string, parent int) int {
	now := time.Since(t.origin).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin).Microseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere.
func (t *tracer) add(name, req string, parent int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.origin).Microseconds(), End: end.Sub(t.origin).Microseconds()})
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name, req string, parent int, f func()) {
	id := t.begin(name, req, parent)
	f()
	t.end(id)
}

// totals sums each span name's duration and counts its spans.
func (t *tracer) totals() (dur map[string]time.Duration, count map[string]int) {
	dur, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		dur[s.Name] += time.Duration(s.End-s.Start) * time.Microsecond
		count[s.Name]++
	}
	return dur, count
}

// covered is the length of the union of the intervals [from, to).
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for i, v := range iv {
		switch {
		case i == 0 || v[0] > end:
			total += v[1] - v[0]
			end = v[1]
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inProcess is one request replayed on an in-process flex.Service: its
// Submit wall, the time its jobs were in the pool (the union of their
// intervals from admission to landing, which covers scheduler and device
// waits), and its time outside decode, the pool and encode.
type inProcess struct {
	submit, pool, unattributed, total time.Duration
}

// batchJobs turns a request into the BatchJobs flexserve would build from
// it, decoding inline layouts from their flexpl text as the server does.
func batchJobs(req request) ([]flex.BatchJob, error) {
	jobs := make([]flex.BatchJob, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = flex.BatchJob{
			Engine: j.Engine, Shards: j.Shards, ShardHalo: j.Halo,
			Priority: priorities[j.Class], Client: req.Client,
			BaseHash: j.BaseHash, Edits: j.Edits,
		}
		if j.Text != "" {
			l, err := flex.ReadLayout(strings.NewReader(j.Text))
			if err != nil {
				return nil, err
			}
			jobs[i].Layout, jobs[i].BaseHash, jobs[i].Edits = l, "", nil
		}
	}
	return jobs, nil
}

// newService builds the in-process twin of the served configuration.
func newService() *flex.Service {
	return flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1), flex.WithOutcomeCacheBytes(32<<20))
}

// replayInProcess sends the same requests (limits per client) to an
// in-process Service, with spans around decode, Submit, the pool jobs
// inside it and encode, and, off the request span, around Check and Measure
// of every outcome.
func replayInProcess(ctx context.Context, w *workload, tr *tracer, limits []int) (map[[2]int]inProcess, error) {
	svc := newService()
	defer svc.Close()
	for _, req := range w.setup() {
		jobs, err := batchJobs(req)
		if err != nil {
			return nil, err
		}
		if _, err := svc.Submit(ctx, jobs, flex.SubmitOptions{}); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	out := map[[2]int]inProcess{}
	var failure error
	closedLoop(ctx, w, 0, limits, func(ctx context.Context, client, k int, req request) reply {
		p, err := replayOne(ctx, svc, tr, fmt.Sprintf("%d/%d", client, k), req)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failure = err
			return reply{Err: err}
		}
		out[[2]int{client, k}] = p
		return reply{Status: 200, Latency: p.total}
	})
	return out, failure
}

func replayOne(ctx context.Context, svc *flex.Service, tr *tracer, id string, req request) (inProcess, error) {
	var p inProcess
	start := time.Now()
	root := tr.begin("request", id, -1)
	defer tr.end(root)
	dec := tr.begin("model.decode", id, root)
	jobs, err := batchJobs(req)
	tr.end(dec)
	decode := time.Since(start)
	if err != nil {
		return p, err
	}

	sub := tr.begin("service.submit", id, root)
	t := time.Now()
	var runs [][2]time.Duration // pool job intervals, from Submit start
	// A job reports its own wall and its wait for a worker when it lands:
	// it was in the pool over the interval of both, ending then.
	ran := func(r flex.BatchResult) {
		end := time.Since(t)
		runs = append(runs, [2]time.Duration{end - r.Wall - r.SchedWait, end})
	}
	sum, err := svc.Submit(ctx, jobs, flex.SubmitOptions{
		OnResult: func(r flex.BatchResult) {
			if len(r.Shards) == 0 {
				ran(r)
			}
		},
		OnShard: func(_ int, r flex.BatchResult) { ran(r) },
	})
	p.submit = time.Since(t)
	tr.end(sub)
	if err != nil {
		return p, err
	}
	for _, r := range runs {
		tr.add("pool.job", id, sub, t.Add(r[0]), t.Add(r[1]))
	}
	p.pool = covered(runs)

	t = time.Now()
	enc := tr.begin("model.encode", id, root)
	var outs []*flex.Layout
	for _, r := range sum.Results {
		if r.Err != nil {
			return p, r.Err
		}
		outs = append(outs, r.Outcome.Layout)
		encode(r.Outcome.Layout)
	}
	tr.end(enc)
	p.total = time.Since(start)
	p.unattributed = p.total - decode - p.pool - time.Since(t)

	tr.timed("model.check", id, -1, func() {
		for _, l := range outs {
			flex.Check(l, 16)
		}
	})
	tr.timed("model.measure", id, -1, func() {
		for _, l := range outs {
			flex.Measure(l)
		}
	})
	return p, nil
}

// runTraced produces the per-layer metrics: a served run (edge, scheduler,
// device and cache readings from result lines and /v1/stats), the same
// requests against flexserve -trace (tracing overhead), the same requests
// in-process with spans (service, model), direct calls into eco and shard
// on the workload's edits, and the engine-phase replay.
func runTraced(ctx context.Context, w *workload, opt options, log *os.File, rec *record) (*result, error) {
	share := time.Duration(opt.seconds) * time.Second / 2
	res := &result{Metrics: map[string]metric{}}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Served: every request goes to an untraced flexserve and then, as the
	// same request, to one started with -trace, so the two latencies are
	// paired under the same load.
	plain, err := setUp(ctx, w, opt, log)
	if err != nil {
		return nil, err
	}
	defer plain.stop()
	tracing, err := setUp(ctx, w, opt, log, "-trace")
	if err != nil {
		return nil, err
	}
	defer tracing.stop()
	var mu sync.Mutex
	var b []*sample
	both := func(ctx context.Context, c, k int, req request) reply {
		rp := serve(plain)(ctx, c, k, req)
		rt := serve(tracing)(ctx, c, k, req)
		mu.Lock()
		b = append(b, &sample{Client: c, K: k, Req: req, Reply: rt})
		mu.Unlock()
		return rp
	}
	a, err := timedRun(ctx, w, plain, share, nil, both)
	if err != nil {
		return nil, err
	}
	plain.stop()
	tracing.stop()
	rec.Provenance["flexserve_buildinfo"] = a.buildInfo
	rec.Provenance["host_steal_frac"] = a.steal
	limits := make([]int, w.clients)
	for _, s := range a.samples {
		limits[s.Client]++
	}
	w.check(ctx, a.samples)
	for _, s := range b {
		s.parse()
		w.verify(s)
	}
	tally(rec, res, a.samples)
	tally(rec, res, b)
	e2e, counts, _ := endToEnd(w, a)
	traced, _, _ := endToEnd(w, &served{samples: b, wall: a.wall})
	rec.Samples = counts

	// Edge and scheduler readings from the untraced served run.
	var first, bytes, edge []float64
	var s429, s5xx float64
	classWait := map[string][]float64{}
	var devWait, devHold []float64
	reconfigs := 0.0
	for _, s := range append(append([]*sample{}, a.samples...), b...) {
		switch st := s.Reply.Status; {
		case st == 429:
			s429++
		case st >= 500:
			s5xx++
		}
	}
	for _, s := range a.samples {
		if s.Lines == nil {
			continue
		}
		first = append(first, ms(s.Reply.First))
		edge = append(edge, ms(s.Reply.Latency)-s.ServerMs)
		bytes = append(bytes, float64(s.Reply.Bytes))
		for i, j := range s.Req.Jobs {
			l := s.Lines[i]
			classWait[j.Class] = append(classWait[j.Class], l.SchedWaitMs)
			if j.Engine == flex.EngineFLEX && !j.Resubmit {
				devWait = append(devWait, l.DeviceWaitMs)
				devHold = append(devHold, l.DeviceHoldMs)
			}
			reconfigs += float64(l.Reconfigs)
		}
	}
	sort.Float64s(first)
	sort.Float64s(edge)
	put("flexserve.first_line_ms", percentile(first, 50), "ms")
	put("flexserve.edge_ms", percentile(edge, 50), "ms")
	put("flexserve.resp_bytes", mean(bytes), "bytes")
	put("flexserve.status_429", s429, "count")
	put("flexserve.status_5xx", s5xx, "count")
	for _, c := range []string{"urgent", "normal", "background"} {
		put("sched.wait_ms."+c, mean(classWait[c]), "ms")
	}
	put("batch.device_wait_ms", mean(devWait), "ms")
	put("batch.device_hold_ms", mean(devHold), "ms")
	put("batch.reconfigs", reconfigs/float64(max(len(a.samples), 1)), "count")
	hits, misses := a.after.OutcomeHits-a.before.OutcomeHits, a.after.OutcomeMisses-a.before.OutcomeMisses
	put("cache.outcome_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	inc, fb := a.after.Incremental-a.before.Incremental, a.after.Fallbacks-a.before.Fallbacks
	put("eco.incremental_ratio", ratio(float64(inc), float64(inc+fb)), "ratio")
	put("obs.trace_overhead_frac", traced["latency_p50_ms"].Value/e2e["latency_p50_ms"].Value-1, "ratio")

	// The same requests in-process, with spans.
	tr := &tracer{origin: time.Now()}
	inproc, err := replayInProcess(ctx, w, tr, limits)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	dur, count := tr.totals()
	nreq := float64(max(count["request"], 1))
	per := func(name string) float64 { return ms(dur[name]) / nreq }
	put("service.submit_ms", per("service.submit"), "ms")
	put("model.decode_ms", per("model.decode"), "ms")
	put("model.encode_ms", per("model.encode"), "ms")
	put("model.check_ms", per("model.check"), "ms")
	put("model.measure_ms", per("model.measure"), "ms")
	var overhead, unattributed, total float64
	for _, p := range inproc {
		overhead += ms(p.submit - p.pool)
		unattributed += ms(p.unattributed)
		total += ms(p.total)
	}
	put("service.overhead_ms", overhead/float64(max(len(inproc), 1)), "ms")
	put("trace.unattributed_frac", ratio(unattributed, total), "ratio")

	// Direct calls into eco and shard on the workload's inputs.
	layerCalls(w, a.samples, tr, put)

	// Engine phases.
	if err := enginePhases(w, a.samples, put, rec); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(opt.out, "records", fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, w.seed))); err != nil {
		return nil, err
	}
	rec.Metrics = m
	for k, v := range m {
		res.Metrics[k] = v
	}
	return res, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCalls calls the eco and shard functions flexserve runs on these
// requests directly on the same inputs, each inside a span: hashing every
// input (the outcome cache keys on it), and for sharded eco jobs applying
// the edits, planning and splitting the bands, the dirty-band prediction,
// and stitching.
func layerCalls(w *workload, samples []*sample, tr *tracer, put func(string, float64, string)) {
	bands, sharded, localBands, dirtyBands := 0, 0, 0, 0
	for _, s := range samples {
		id := fmt.Sprintf("%d/%d", s.Client, s.K)
		for _, j := range s.Req.Jobs {
			in := j.Input
			var err error
			if in == nil {
				tr.timed("eco.apply", id, -1, func() { in, err = eco.Apply(w.bases[j.Base], j.Edits) })
				if err != nil {
					continue
				}
			}
			tr.timed("eco.hash", id, -1, func() { eco.Hash(in) })
			if j.Shards == 0 || j.Input != nil {
				continue
			}
			var plan *shard.Plan
			var parts []*flex.Layout
			tr.timed("shard.split", id, -1, func() {
				if plan, err = shard.PlanBands(in, j.Shards, j.Halo); err == nil {
					parts, err = shard.Split(in, plan)
				}
			})
			if err != nil {
				continue
			}
			sharded++
			bands += len(parts)
			tr.timed("eco.hash", id, -1, func() {
				for _, p := range parts {
					eco.Hash(p)
				}
			})
			var marks []bool
			var local bool
			tr.timed("eco.dirty", id, -1, func() {
				var spans []eco.Span
				spans, local, err = eco.DirtySpans(w.bases[j.Base], j.Edits, j.Halo)
				marks = eco.MarkDirty(plan, spans)
			})
			if err == nil && local {
				localBands += len(marks)
				for _, d := range marks {
					if d {
						dirtyBands++
					}
				}
			}
			tr.timed("shard.stitch", id, -1, func() { shard.Stitch(in, plan, parts) })
		}
	}
	dur, _ := tr.totals()
	per := func(name string) float64 { return ms(dur[name]) / float64(max(len(samples), 1)) }
	put("eco.apply_ms", per("eco.apply"), "ms")
	put("eco.hash_ms", per("eco.hash"), "ms")
	put("eco.dirty_ms", per("eco.dirty"), "ms")
	put("eco.dirty_band_ratio", ratio(float64(dirtyBands), float64(localBands)), "ratio")
	put("shard.split_ms", per("shard.split"), "ms")
	put("shard.stitch_ms", per("shard.stitch"), "ms")
	put("shard.bands", ratio(float64(bands), float64(sharded)), "count")
}

// enginePhases legalizes a few of the workload's FLEX inputs directly
// (core.legalize_ms and the engine's counters) and through the phase
// replay. The phase metrics are reported only when the replay is faithful
// on every one of them; otherwise the record says why they are missing.
func enginePhases(w *workload, samples []*sample, put func(string, float64, string), rec *record) error {
	const want = 4
	var layouts []*flex.Layout
	for _, s := range samples {
		for _, j := range s.Req.Jobs {
			if len(layouts) == want || j.Engine != flex.EngineFLEX || j.Resubmit {
				continue
			}
			if j.Input != nil {
				layouts = append(layouts, j.Input)
				continue
			}
			// An eco job re-legalizes the bands its edits dirty.
			in, err := eco.Apply(w.bases[j.Base], j.Edits)
			if err != nil {
				return err
			}
			plan, err := shard.PlanBands(in, j.Shards, j.Halo)
			if err != nil {
				return err
			}
			parts, err := shard.Split(in, plan)
			if err != nil {
				return err
			}
			spans, _, err := eco.DirtySpans(w.bases[j.Base], j.Edits, j.Halo)
			if err != nil {
				return err
			}
			for b, d := range eco.MarkDirty(plan, spans) {
				if d && len(layouts) < want {
					layouts = append(layouts, parts[b])
				}
			}
		}
	}
	var legalize time.Duration
	var movable, expansions, fallbacks float64
	var calls, points, bps, local, placed float64
	var ord, query, extract, best, sacs time.Duration
	mismatch := ""
	for _, l := range layouts {
		e, err := runEngine(l)
		if err != nil {
			return err
		}
		legalize += e.Legalize
		movable += float64(e.Movable)
		expansions += float64(e.Core.Stats.Expansions)
		fallbacks += float64(e.Core.Stats.Fallbacks)
		r := e.Replay
		if mismatch == "" {
			mismatch = e.Mismatch
		}
		calls += float64(r.FOPCalls)
		points += float64(r.FOP.InsertionPoints)
		bps += float64(r.FOP.Curve.RawBps)
		local += float64(r.LocalCells)
		placed += float64(r.Placed)
		ord, query, extract, best, sacs = ord+r.Order, query+r.Query, extract+r.Extract, best+r.Best, sacs+r.SACS
	}
	n := float64(max(len(layouts), 1))
	put("core.legalize_ms", ms(legalize)/n, "ms")
	put("core.cells_per_s", ratio(movable, legalize.Seconds()), "1/s")
	put("mgl.expansions", expansions/n, "count")
	put("mgl.fallbacks", fallbacks/n, "count")
	rec.note("engine replay: %d FLEX layouts", len(layouts))
	if mismatch != "" {
		rec.note("engine-phase metrics omitted: the replay is not faithful to the engine: %s", mismatch)
		return nil
	}
	put("order.ms", ms(ord)/n, "ms")
	put("region.query_ms", ms(query)/n, "ms")
	put("region.extract_ms", ms(extract)/n, "ms")
	put("fop.best_ms", ms(best)/n, "ms")
	put("shift.sacs_ms", ms(sacs)/n, "ms")
	put("fop.calls", calls/n, "count")
	put("fop.insertion_points", points/n, "count")
	put("fop.curve.raw_bps", bps/n, "count")
	put("region.local_cells", ratio(local, calls), "count")
	put("fop.calls_per_placed", ratio(calls, placed), "ratio")
	return nil
}
