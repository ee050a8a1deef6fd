package flex

import (
	"context"
	"fmt"
	"os"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/cache"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// Edit is one perturbation of a job's base layout — move, insert or delete
// a movable cell (see BatchJob.Edits). It is internal/eco's Edit verbatim.
type Edit = eco.Edit

// The edit operations a BatchJob.Edits entry may carry.
const (
	// EditMove repositions a movable cell's global-placement anchor.
	EditMove = eco.OpMove
	// EditInsert adds a new movable cell.
	EditInsert = eco.OpInsert
	// EditDelete removes a movable cell.
	EditDelete = eco.OpDelete
)

// LayoutHash returns the hex SHA-256 of the layout's canonical flexpl
// bytes — the content address the outcome cache keys on, and the handle a
// BatchJob.BaseHash (or flexserve "base" field) references a layout by.
func LayoutHash(l *Layout) string { return eco.Hash(l) }

// WithOutcomeCacheBytes turns on the outcome cache: finished legalizations
// are memoized up to b resident bytes, keyed by (input-layout content hash,
// engine, options, band count, halo), so a repeated request is served from
// cache and an edited request (BatchJob.Edits) re-legalizes only its dirty
// row bands, splicing the cached base outcome's clean bands in. b <= 0
// disables the cache, the default (WithCacheDir alone also enables it, with
// a 256 MiB default bound).
func WithOutcomeCacheBytes(b int64) ServiceOption {
	return func(c *serviceConfig) { c.outcomeBytes = b }
}

// WithCacheDir persists the outcome cache as content-addressed files under
// dir (one JSON file per entry, named by the hex SHA-256 of its key,
// written via temp file + atomic rename): entries load on start so a
// restarted node is warm, lookups that miss memory fall back to disk, and
// eviction is memory-only — files survive for the next start. A file that
// fails to read or decode is skipped with a warning, never served.
func WithCacheDir(dir string) ServiceOption {
	return func(c *serviceConfig) { c.cacheDir = dir }
}

// WithOutcomeWarn routes the outcome cache's corruption and I/O warnings
// (one call per skipped file) to warn instead of the default stderr line.
func WithOutcomeWarn(warn func(path string, err error)) ServiceOption {
	return func(c *serviceConfig) { c.outcomeWarn = warn }
}

// isEco reports whether the job perturbs or references a base layout.
func (j BatchJob) isEco() bool { return len(j.Edits) > 0 || j.BaseHash != "" }

// optionsKey canonicalizes the engine options into the outcome key's
// configuration component.
func optionsKey(o Options) string {
	return fmt.Sprintf("t=%d|w=%d|pe1=%t|off=%t", o.Threads, o.SlidingWindow, o.OnePE, o.OffloadInsert)
}

// outcomeKey builds the cache key of legalizing a layout with the given
// content hash under the job's engine/options and a band count (0 for the
// unsharded path).
func (s *Service) outcomeKey(job BatchJob, hash string, bands int) (string, error) {
	name, err := engineWireName(job.Engine)
	if err != nil {
		return "", err
	}
	halo := 0
	if bands > 0 {
		halo = s.effectiveHalo(job)
	}
	return eco.Key(hash, name, optionsKey(job.Options), bands, halo), nil
}

// resolveBase returns the job's base layout — the placement its edits apply
// to: the cached layout named by BaseHash, else the explicit Layout, else
// the generated Design.
func (s *Service) resolveBase(job BatchJob) (*Layout, error) {
	if job.BaseHash != "" {
		if s.outcomes == nil {
			return nil, fmt.Errorf("flex: job references base %s but the service has no outcome cache (WithOutcomeCacheBytes / WithCacheDir)", job.BaseHash)
		}
		v, ok := s.outcomes.Get(eco.LayoutKey(job.BaseHash))
		if !ok {
			return nil, fmt.Errorf("flex: unknown base layout %s", job.BaseHash)
		}
		return v.(*Layout), nil
	}
	return job.resolveLayout(s.generate)
}

// resolveInput returns the job's effective input layout — the base with the
// job's edits applied — alongside the base itself (they are the same layout
// for jobs without edits).
func (s *Service) resolveInput(job BatchJob) (input, base *Layout, err error) {
	base, err = s.resolveBase(job)
	if err != nil {
		return nil, nil, err
	}
	if len(job.Edits) == 0 {
		return base, base, nil
	}
	input, err = eco.Apply(base, job.Edits)
	if err != nil {
		return nil, nil, err
	}
	return input, base, nil
}

// newOutcomeCache builds the service's outcome cache from the config, or
// nil when disabled. A cache directory that cannot be initialized degrades
// to a memory-only cache with a warning — serving beats persistence.
func newOutcomeCache(cfg *serviceConfig) *cache.Disk {
	bytes := cfg.outcomeBytes
	if bytes <= 0 {
		if cfg.cacheDir == "" {
			return nil
		}
		bytes = 256 << 20
	}
	warn := cfg.outcomeWarn
	if warn == nil {
		warn = func(path string, err error) {
			fmt.Fprintf(os.Stderr, "flex: outcome cache: %s: %v\n", path, err)
		}
	}
	d, err := cache.NewDisk(bytes, cfg.cacheDir, eco.EncodeValue, eco.DecodeValue, warn)
	if err != nil {
		warn(cfg.cacheDir, err)
		d, _ = cache.NewDisk(bytes, "", eco.EncodeValue, eco.DecodeValue, warn)
	}
	return d
}

// ecoInfo is one sharded job's incremental-reuse decision, computed once
// next to the job's shard prep: the input's content identity, the per-band
// input hashes, and — when a usable cached entry exists — which bands may
// reuse its outcomes instead of re-legalizing.
type ecoInfo struct {
	hash   string   // input layout content hash
	key    string   // outcome cache key for this run
	bandIn []string // per-band input layout hashes
	entry  *eco.Entry
	reuse  []bool // per band: serve entry.Bands[b] instead of legalizing
	store  bool   // fold should store a fresh entry (false on an exact hit)
}

// ecoPrep computes the reuse decision for one sharded job. The halo-based
// dirty prediction chooses which bands to re-solve; every band it predicts
// clean must hash-match the cached entry's band input, or the whole job
// falls back to a full run — reuse is only ever hash-verified, so an
// incremental result is byte-identical to the full re-run by construction.
func (s *Service) ecoPrep(job BatchJob, p *shardPrep) (*ecoInfo, error) {
	nb := len(p.plan.Bands)
	info := &ecoInfo{
		hash:   eco.Hash(p.layout),
		bandIn: make([]string, nb),
		reuse:  make([]bool, nb),
		store:  true,
	}
	key, err := s.outcomeKey(job, info.hash, nb)
	if err != nil {
		return nil, err
	}
	info.key = key
	for i, b := range p.bands {
		info.bandIn[i] = eco.Hash(b)
	}

	// Exact repeat: this input already ran under this configuration.
	if ent := s.lookupEntry(key, nb, info.bandIn, nil); ent != nil {
		info.entry = ent
		for i := range info.reuse {
			info.reuse[i] = true
		}
		info.store = false
		s.accountEco(job, true, true)
		return info, nil
	}

	// Base splice: reuse the base outcome's hash-verified clean bands.
	if len(job.Edits) > 0 {
		if s.spliceFromBase(job, p, info) {
			s.accountEco(job, true, true)
			return info, nil
		}
	}
	s.accountEco(job, false, false)
	return info, nil
}

// spliceFromBase fills info.reuse from the base layout's cached outcome.
// It reports false — leaving the job on the full-run path — when the base
// outcome is cold, the edit batch ripples past the halo, or the dirty
// prediction disagrees with the band hashes.
func (s *Service) spliceFromBase(job BatchJob, p *shardPrep, info *ecoInfo) bool {
	nb := len(p.plan.Bands)
	baseHash := job.BaseHash
	if baseHash == "" {
		baseHash = eco.Hash(p.base)
	}
	bkey, err := s.outcomeKey(job, baseHash, nb)
	if err != nil {
		return false
	}
	halo := s.effectiveHalo(job)
	spans, inHalo, err := eco.DirtySpans(p.base, job.Edits, halo)
	if err != nil || !inHalo {
		return false
	}
	dirty := eco.MarkDirty(p.plan, spans)
	clean := make([]int, 0, nb)
	for i, d := range dirty {
		if !d {
			clean = append(clean, i)
		}
	}
	if len(clean) == 0 {
		return false
	}
	// The entry's predicted-clean bands must hash-match this job's band
	// inputs; any disagreement means the prediction was unsound and the
	// whole job re-runs.
	ent := s.lookupEntry(bkey, nb, info.bandIn, clean)
	if ent == nil {
		return false
	}
	info.entry = ent
	for _, i := range clean {
		info.reuse[i] = true
	}
	return true
}

// lookupEntry fetches a cached outcome entry and validates its shape: the
// band count must match, and the bands listed in verify (nil = all) must
// hash-match wantIn. Anything else is treated as a miss.
func (s *Service) lookupEntry(key string, bands int, wantIn []string, verify []int) *eco.Entry {
	v, ok := s.outcomes.Get(key)
	if !ok {
		return nil
	}
	ent, ok := v.(*eco.Entry)
	if !ok || len(ent.Bands) != bands {
		return nil
	}
	if verify == nil {
		for i := range wantIn {
			if ent.Bands[i].InHash != wantIn[i] {
				return nil
			}
		}
		return ent
	}
	for _, i := range verify {
		if ent.Bands[i].InHash != wantIn[i] {
			return nil
		}
	}
	return ent
}

// accountEco folds one job's outcome-cache decision into the counters.
func (s *Service) accountEco(job BatchJob, hit, reused bool) {
	s.mu.Lock()
	if hit {
		s.outcomeHits++
	} else {
		s.outcomeMisses++
	}
	if job.isEco() {
		if reused {
			s.incremental++
		} else {
			s.fallbacks++
		}
	}
	s.mu.Unlock()
}

// cachedOutcome rebuilds a servable Outcome from stored pieces: the layout
// is cloned (cache entries are shared; callers own their results), metrics
// and violations are recomputed with the same pure functions every engine
// uses, and the engine's own legal verdict and modeled seconds come from
// the store — so a cache hit is byte-identical to the run that filled it.
func cachedOutcome(l *model.Layout, legal bool, modeled float64, engine Engine) *Outcome {
	cl := l.Clone()
	out := &Outcome{
		Engine:         engine,
		Layout:         cl,
		Legal:          legal,
		ModeledSeconds: modeled,
	}
	out.Metrics = model.Measure(cl)
	out.Violations = cl.Check(16)
	return out
}

// storeOutcome publishes one finished sharded run into the outcome cache:
// the entry under the run's key, and the input layout under its own content
// address so future requests can name it as a base. Layouts are cloned into
// the entry — the caller owns the result layouts it was handed.
func (s *Service) storeOutcome(job BatchJob, info *ecoInfo, p *shardPrep, bandOuts []*Outcome, out *Outcome) {
	name, err := engineWireName(job.Engine)
	if err != nil {
		return
	}
	ent := &eco.Entry{
		Engine:         name,
		Options:        optionsKey(job.Options),
		Halo:           s.effectiveHalo(job),
		Result:         out.Layout.Clone(),
		Legal:          out.Legal,
		ModeledSeconds: out.ModeledSeconds,
	}
	for b, o := range bandOuts {
		ent.Bands = append(ent.Bands, eco.BandOutcome{
			InHash:         info.bandIn[b],
			Layout:         o.Layout.Clone(),
			Legal:          o.Legal,
			ModeledSeconds: o.ModeledSeconds,
		})
	}
	s.outcomes.Add(info.key, ent, ent.ApproxBytes())
	s.outcomes.Add(eco.LayoutKey(info.hash), p.layout, p.layout.ApproxBytes())
}

// plainPoolJob is the unsharded pool closure on a service with an outcome
// cache or for a job with edits: resolve the base, apply the edits, then
// serve the whole outcome from cache or legalize (locally or on the fleet)
// and store it. Plain jobs have no bands to splice, so an edited job here
// is always a whole-run — served from cache when the edited input was seen
// before, counted as a fallback when it must legalize.
func (s *Service) plainPoolJob(job BatchJob, class sched.Class) batch.Job[*Outcome] {
	return func(ctx context.Context) (*Outcome, error) {
		input, _, err := s.resolveInput(job)
		if err != nil {
			return nil, err
		}
		legalize := func() (*Outcome, error) {
			if s.router == nil {
				return job.legalizeOnDevice(ctx, input)
			}
			remote := input
			if job.Layout == nil && !job.isEco() {
				// Pure design references travel by name so the worker
				// serves them from its own layout cache.
				remote = nil
			}
			return s.remoteLegalize(ctx, job, remote, s.routingKey(job, class))
		}
		if s.outcomes == nil {
			// Edits apply, but nothing memoizes (this path is only built
			// for eco jobs when the cache is off).
			return legalize()
		}
		hash := eco.Hash(input)
		key, err := s.outcomeKey(job, hash, 0)
		if err != nil {
			return nil, err
		}
		ran := false
		var ops map[string]int64
		v, err := s.outcomes.Do(key, func() (any, int64, error) {
			ran = true
			out, err := legalize()
			if err != nil {
				return nil, 0, err
			}
			ops = out.Ops
			ent := &eco.Entry{
				Engine:         "", // echoed by the key; set below for integrity
				Options:        optionsKey(job.Options),
				Result:         out.Layout.Clone(),
				Legal:          out.Legal,
				ModeledSeconds: out.ModeledSeconds,
			}
			if name, err := engineWireName(job.Engine); err == nil {
				ent.Engine = name
			}
			s.outcomes.Add(eco.LayoutKey(hash), input, input.ApproxBytes())
			return ent, ent.ApproxBytes(), nil
		})
		s.accountEco(job, !ran, !ran)
		if err != nil {
			return nil, err
		}
		ent := v.(*eco.Entry)
		out := cachedOutcome(ent.Result, ent.Legal, ent.ModeledSeconds, job.Engine)
		out.InputHash = hash
		out.Ops = ops // nil when the outcome came from the cache
		return out, nil
	}
}

// cachedBand serves band b from the job's reuse decision, or reports
// (nil, false, nil) when the band must legalize. The cached band layout is
// cloned and re-measured exactly as cachedOutcome does for whole runs. A
// served band records an "eco-splice" span on the job's trace — the
// incremental path's footprint in the span tree.
func (st *shardState) cachedBand(ctx context.Context, job BatchJob, b int) (*Outcome, bool, error) {
	if st.eco == nil {
		return nil, false, nil
	}
	info, err := st.eco()
	if err != nil {
		return nil, true, err
	}
	if info.entry == nil || b >= len(info.reuse) || !info.reuse[b] {
		return nil, false, nil
	}
	_, end := obs.StartSpan(ctx, "eco-splice", fmt.Sprintf("band %d from cached outcome", b))
	defer end()
	bo := &info.entry.Bands[b]
	return cachedOutcome(bo.Layout, bo.Legal, bo.ModeledSeconds, job.Engine), true, nil
}
