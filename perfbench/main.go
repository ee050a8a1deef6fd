// Command perfbench is the wall-clock benchmark of flexserve's served path.
// It starts cmd/flexserve on a loopback port, drives one seeded workload
// through it in a closed loop, verifies every answer off the timed interval,
// and prints one JSON result line (see METRICS.md for every metric, and
// run.sh, which builds both binaries, for how to run it).
//
// With -trace 0 it reports the end-to-end metrics of an untraced run. With
// -trace 1 it reports per-layer metrics: from a served run, from the same
// requests replayed in-process with spans around each layer's public
// functions, and from a replay of FLEX's engine phases (reported only while
// it stays byte-identical to the engine).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	flex "github.com/flex-eda/flex"
)

// setupRepeats is how many times a run sets the server up; setup_s is the
// median, and the last set-up server takes the timed load.
const setupRepeats = 5

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	flexserve string
	out       string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: full-legalize, eco-edits or tenant-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&opt.flexserve, "flexserve", "", "path to the flexserve binary")
	flag.StringVar(&opt.out, "out", ".bench_build", "directory for logs, records and spans")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.flexserve == "" || opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) {
		return errors.New("need -flexserve, -seconds >= 1 and -trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(opt.out, "records"), 0o755); err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(opt.out, "flexserve.log"))
	if err != nil {
		return err
	}
	defer log.Close()

	rec := &record{Workload: w.name, Seed: opt.seed, Trace: opt.trace, Seconds: opt.seconds, Provenance: provenance()}
	var res *result
	if opt.trace == 0 {
		res, err = runEndToEnd(ctx, w, opt, log, rec)
	} else {
		res, err = runTraced(ctx, w, opt, log, rec)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return emit(opt, rec, res)
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run: provenance, every metric
// (including those the result line does not carry) and the first failures.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    int               `json:"seconds"`
	Provenance map[string]any    `json:"provenance"`
	Samples    map[string]int    `json:"samples"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      []string          `json:"notes,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// emit prints the record line, writes it under <out>/records, and prints
// the result as the last line of standard output.
func emit(opt options, rec *record, res *result) error {
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace)
	if err := os.WriteFile(filepath.Join(opt.out, "records", name), append(line, '\n'), 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", line, out)
	return nil
}

// provenance identifies the machine and toolchain a record was made on;
// flexserve's own /v1/buildinfo is added by the run.
func provenance() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpu,
		"go_version":  runtime.Version(),
		"server_args": strings.Join(serverArgs, " "),
	}
}

// setUp starts a fresh flexserve and runs the workload's set-up requests on
// it, checking each answer.
func setUp(ctx context.Context, w *workload, opt options, log *os.File, extra ...string) (*server, error) {
	srv, err := startServer(ctx, opt.flexserve, log, extra...)
	if err != nil {
		return nil, err
	}
	for _, req := range w.setup() {
		s := &sample{Req: req}
		payload, err := body(req)
		if err == nil {
			s.Reply = srv.post(ctx, payload)
			s.parse()
			w.verify(s)
		}
		for i, j := range req.Jobs {
			if j.Base >= 0 && s.Lines != nil && s.Lines[i].LayoutHash != flex.LayoutHash(j.Input) {
				s.failf("base %d: served layoutHash differs from flex.LayoutHash", j.Base)
			}
		}
		if err != nil || len(s.Problems) > 0 {
			srv.stop()
			return nil, fmt.Errorf("set-up request failed: %v %v", err, s.Problems)
		}
	}
	return srv, nil
}

// closedLoop runs the workload's clients, each sending its next request
// only after the previous answer is complete. Clients stop after dur, or
// after limits[client] requests when limits is set. It returns the samples
// in (client, k) order and the wall time until the last answer.
func closedLoop(ctx context.Context, w *workload, dur time.Duration, limits []int, do func(ctx context.Context, client, k int, req request) reply) ([]*sample, time.Duration) {
	var mu sync.Mutex
	var all []*sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				if (limits != nil && k >= limits[c]) || (limits == nil && time.Since(start) >= dur) {
					return
				}
				req := w.next(c, k)
				rp := do(ctx, c, k, req)
				mu.Lock()
				all = append(all, &sample{Client: c, K: k, Req: req, Reply: rp})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Client != all[j].Client {
			return all[i].Client < all[j].Client
		}
		return all[i].K < all[j].K
	})
	return all, wall
}

// serve sends one request to srv.
func serve(srv *server) func(context.Context, int, int, request) reply {
	return func(ctx context.Context, _, _ int, req request) reply {
		payload, err := body(req)
		if err != nil {
			return reply{Err: err}
		}
		return srv.post(ctx, payload)
	}
}

// served is one timed served run with the server-side readings around it.
type served struct {
	samples   []*sample
	wall      time.Duration
	cpu       time.Duration
	hwmMB     float64
	before    stats
	after     stats
	buildInfo json.RawMessage
	steal     float64 // share of the host's CPU time stolen from this VM
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable). A virtual machine whose host
// is busy loses CPU time it cannot see as its own; the record states how
// much, since it moves every timing.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// timedRun drives the closed loop with do for dur (or limits) and reads
// srv's CPU time, peak RSS and /v1/stats around the timed interval.
func timedRun(ctx context.Context, w *workload, srv *server, dur time.Duration, limits []int, do func(context.Context, int, int, request) reply) (*served, error) {
	r := &served{}
	if err := srv.getJSON("/v1/stats", &r.before); err != nil {
		return nil, err
	}
	cpu0, _, err := srv.procStats()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	r.samples, r.wall = closedLoop(ctx, w, dur, limits, do)
	steal1, total1 := hostSteal()
	r.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	cpu1, hwm, err := srv.procStats()
	if err != nil {
		return nil, err
	}
	r.cpu, r.hwmMB = cpu1-cpu0, hwm
	if err := srv.getJSON("/v1/stats", &r.after); err != nil {
		return nil, err
	}
	if err := srv.getJSON("/v1/buildinfo", &r.buildInfo); err != nil {
		return nil, err
	}
	return r, nil
}

// check parses and verifies every sample off the timed interval. For
// eco-edits a seeded sample of answers (always including a fallback) is
// also compared byte for byte with a full uncached re-run.
func (w *workload) check(ctx context.Context, samples []*sample) {
	for _, s := range samples {
		s.parse()
		w.verify(s)
	}
	if w.name != "eco-edits" || len(samples) == 0 {
		return
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1))
	defer svc.Close()
	r := rng(w.seed, "verify", 0, 0)
	picks := map[int]bool{r.Intn(len(samples)): true, r.Intn(len(samples)): true}
	for i, s := range samples {
		if s.Req.Fallback {
			picks[i] = true
			break
		}
	}
	for i := range samples {
		if picks[i] {
			w.verifyFullRerun(ctx, svc, samples[i])
		}
	}
}

// tally counts failed samples into the result and keeps the first few
// problems in the record.
func tally(rec *record, res *result, samples []*sample) {
	res.Attempted += len(samples)
	for _, s := range samples {
		if len(s.Problems) == 0 {
			continue
		}
		res.Failed++
		if len(rec.Failures) < 10 {
			rec.Failures = append(rec.Failures, fmt.Sprintf("client %d request %d: %s", s.Client, s.K, strings.Join(s.Problems, "; ")))
		}
	}
	res.Correct = res.Failed == 0
}

func runEndToEnd(ctx context.Context, w *workload, opt options, log *os.File, rec *record) (*result, error) {
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		var err error
		if srv, err = setUp(ctx, w, opt, log); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	run, err := timedRun(ctx, w, srv, time.Duration(opt.seconds)*time.Second, nil, serve(srv))
	if err != nil {
		return nil, err
	}
	srv.stop()
	w.check(ctx, run.samples)

	res := &result{Metrics: map[string]metric{}}
	tally(rec, res, run.samples)
	rec.Provenance["flexserve_buildinfo"] = run.buildInfo
	rec.Provenance["host_steal_frac"] = run.steal
	m, counts, notes := endToEnd(w, run)
	m["setup_s"] = metric{median(setups), "s"}
	rec.Metrics, rec.Samples, rec.Notes = m, counts, notes
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_rps",
		"urgent_p50_ms", "server_cpu_ms_per_req", "server_rss_mb", "ave_dis"} {
		res.Metrics[name] = m[name]
	}
	rec.Metrics["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	return res, nil
}

// endToEnd computes the user-visible metrics of a served run, with the
// sample counts and notes that belong in its record.
func endToEnd(w *workload, run *served) (m map[string]metric, counts map[string]int, notes []string) {
	var lat, urgent []float64
	var aveDis, modeled float64
	jobs, completed := 0, 0
	for _, s := range run.samples {
		if s.Lines == nil {
			continue
		}
		completed++
		lat = append(lat, ms(s.Reply.Latency))
		for i, j := range s.Req.Jobs {
			if j.Class == "urgent" {
				urgent = append(urgent, ms(s.At[i]))
			}
			aveDis += s.AveDis[i]
			modeled += s.Lines[i].ModeledSeconds
			jobs++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(urgent)
	counts = map[string]int{"requests": len(run.samples), "completed": completed, "jobs": jobs, "urgent_lines": len(urgent)}
	notes = append(notes, fmt.Sprintf("latency_tail_ms is p%d of %d requests", w.tailP, len(lat)))
	if beyond := len(lat) - int(math.Ceil(float64(w.tailP)/100*float64(len(lat)))); beyond < 10 {
		notes = append(notes, fmt.Sprintf("only %d samples lie beyond p%d: run longer for a steady tail", beyond, w.tailP))
	}
	m = map[string]metric{
		"latency_p50_ms":        {percentile(lat, 50), "ms"},
		"latency_tail_ms":       {percentile(lat, float64(w.tailP)), "ms"},
		"throughput_rps":        {float64(completed) / run.wall.Seconds(), "1/s"},
		"urgent_p50_ms":         {percentile(urgent, 50), "ms"},
		"server_cpu_ms_per_req": {ms(run.cpu) / float64(max(completed, 1)), "ms"},
		"server_rss_mb":         {run.hwmMB, "MB"},
		"ave_dis":               {aveDis / float64(max(jobs, 1)), "rows"},
		"modeled_s":             {modeled / float64(max(jobs, 1)), "s"},
	}
	return m, counts, notes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of sorted values (0 if empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[clamp(rank-1, 0, len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}
