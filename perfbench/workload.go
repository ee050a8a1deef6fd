package main

import (
	"fmt"
	"math/rand"
	"strings"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/shard"
)

// The three priority classes of tenant-mix, as flexserve priority levels.
// Single-class workloads send every job as urgent: interactive requests are
// what the urgent class is for, and it keeps urgent_p50_ms defined on every
// workload.
var priorities = map[string]int{"urgent": 10, "normal": 0, "background": -10}

// Sharding of eco-edits: every base and every edit request is legalized in
// ecoShards row bands with an ecoHalo-row seam window.
const (
	ecoShards = 8
	ecoHalo   = 1
)

// jobSpec is one job of a request, in the form both the HTTP body and the
// in-process replay are built from.
type jobSpec struct {
	Class  string
	Engine flex.Engine
	// Input is an inline layout and Text its flexpl encoding; both are nil
	// for eco jobs, which name a base by hash instead.
	Input *flex.Layout
	Text  string
	// Base indexes workload.bases for eco jobs (-1 otherwise); BaseHash is
	// that base's layoutHash.
	Base     int
	BaseHash string
	Edits    []flex.Edit
	Shards   int
	Halo     int
	// Resubmit marks a job whose layout was legalized during set-up, so the
	// server answers it from the outcome cache.
	Resubmit bool
}

// request is one POST /v1/legalize: one client's batch of jobs.
type request struct {
	Client string
	Jobs   []jobSpec
	// Fallback marks an eco request with an edit that leaves the halo, so
	// the server must legalize it in full.
	Fallback bool
}

// workload is a seeded, deterministic request sequence: the same seed gives
// the same set-up requests and the same k-th request of every client.
type workload struct {
	name    string
	clients int
	seed    int64
	// tailP is the latency percentile reported as latency_tail_ms: the
	// highest the run's expected sample count leaves ten samples above.
	tailP int
	bases []*flex.Layout // eco-edits: the base inputs legalized at set-up
	setup func() []request
	next  func(client, k int) request
}

// rng returns a generator for one (seed, stream, index) triple, so every
// request's inputs are independent of how many requests came before it.
func rng(seed int64, stream string, a, b int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// rotate is request k's slot in a seed-shifted round robin over n items.
func rotate(seed int64, k, n int) int {
	return int((uint64(seed) + uint64(k)) % uint64(n))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// jitter returns a copy of l with every movable cell's global position
// nudged by up to dx sites and dy rows, so each request is a distinct
// layout (an outcome-cache miss) of the same design.
func jitter(l *flex.Layout, r *rand.Rand, dx, dy int) *flex.Layout {
	out := l.Clone()
	for i := range out.Cells {
		c := &out.Cells[i]
		if c.Fixed {
			continue
		}
		c.GX = clamp(c.GX+r.Intn(2*dx+1)-dx, 0, out.NumSitesX-c.W)
		c.GY = clamp(c.GY+r.Intn(2*dy+1)-dy, 0, out.NumRows-c.H)
		c.X, c.Y = c.GX, c.GY
	}
	return out
}

func encode(l *flex.Layout) string {
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, l); err != nil {
		panic(err) // writing to a strings.Builder cannot fail
	}
	return sb.String()
}

func inline(l *flex.Layout, e flex.Engine, class string) jobSpec {
	return jobSpec{Class: class, Engine: e, Input: l, Text: encode(l), Base: -1}
}

func generate(design string, scale float64) (*flex.Layout, error) {
	l, err := flex.Generate(design, scale)
	if err != nil {
		return nil, fmt.Errorf("generate %s@%g: %w", design, scale, err)
	}
	return l, nil
}

type designRef struct {
	name  string
	scale float64
}

// Designs of full-legalize: dense and sparse, with and without tall cells,
// at scales where FLEX takes about 0.08, 0.14, 0.24, 0.33 and 0.45 s on one
// core. Separated latency clusters of equal size keep the median inside the
// third design's cluster and p75 inside the fourth's, rather than on a
// boundary between two.
var fullDesigns = []designRef{
	{"fft_a_md3", 0.06},       // density 0.31, md3 height mix
	{"pci_b_a_md2", 0.065},    // density 0.58, the largest tall-cell share
	{"edit_dist_a_md3", 0.02}, // density 0.57, md3 height mix
	{"fft_2_md2", 0.075},      // density 0.83, some tall cells
	{"des_perf_1", 0.02},      // density 0.91, no cells over 3 rows
}

// Bases of eco-edits, legalized sharded at set-up: tall enough for eight
// bands of about ten rows each. The first also takes every fallback.
var ecoDesigns = []designRef{
	{"edit_dist_a_md3", 0.04},
	{"des_perf_a_md2", 0.04},
	{"fft_a_md3", 0.08},
	{"pci_b_b_md3", 0.08},
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "full-legalize":
		return newFullLegalize(seed)
	case "eco-edits":
		return newEcoEdits(seed)
	case "tenant-mix":
		return newTenantMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want full-legalize, eco-edits, tenant-mix)", name)
}

// full-legalize: one client; each request is one whole jittered design,
// legalized by FLEX unsharded, with the layout sent back.
func newFullLegalize(seed int64) (*workload, error) {
	var designs []*flex.Layout
	for _, d := range fullDesigns {
		l, err := generate(d.name, d.scale)
		if err != nil {
			return nil, err
		}
		designs = append(designs, l)
	}
	w := &workload{name: "full-legalize", clients: 1, seed: seed, tailP: 75}
	req := func(k int) request {
		d := designs[rotate(seed, k, len(designs))]
		l := jitter(d, rng(seed, "full", 0, k), 2, 1)
		return request{Client: "designer", Jobs: []jobSpec{inline(l, flex.EngineFLEX, "urgent")}}
	}
	// One warm-up request of the largest design, from its own stream, so
	// the first timed request does not pay for a cold heap.
	w.setup = func() []request {
		l := jitter(designs[len(designs)-1], rng(seed, "full-warmup", 0, 0), 2, 1)
		return []request{{Client: "designer", Jobs: []jobSpec{inline(l, flex.EngineFLEX, "urgent")}}}
	}
	w.next = func(_, k int) request { return req(k) }
	return w, nil
}

// eco-edits: one client; set-up legalizes the bases sharded, then each
// request moves three cells of one base (named by layoutHash) sideways
// inside one band, so exactly one band is dirty. Every fifth request also
// moves one cell past the halo on the first base and must fall back to a
// full run. The bases are the same for every seed; the seed picks the edits.
func newEcoEdits(seed int64) (*workload, error) {
	w := &workload{name: "eco-edits", clients: 1, seed: seed, tailP: 90}
	var hashes []string
	var inBand [][][]int // per base, per band: cells whose edits dirty only that band
	for _, d := range ecoDesigns {
		l, err := generate(d.name, d.scale)
		if err != nil {
			return nil, err
		}
		cells, err := bandLocalCells(l)
		if err != nil {
			return nil, err
		}
		w.bases = append(w.bases, l)
		hashes = append(hashes, flex.LayoutHash(l))
		inBand = append(inBand, cells)
	}
	w.setup = func() []request {
		r := request{Client: "eco"}
		for i, l := range w.bases {
			j := inline(l, flex.EngineFLEX, "urgent")
			j.Base, j.Shards, j.Halo = i, ecoShards, ecoHalo
			r.Jobs = append(r.Jobs, j)
		}
		return []request{r}
	}
	w.next = func(_, k int) request {
		fallback := k%5 == 4
		b := 0
		if !fallback {
			b = rotate(seed, k-k/5, len(w.bases))
		}
		r := rng(seed, "eco", b, k)
		bands := inBand[b]
		cells := bands[r.Intn(len(bands))]
		edits := ecoMoves(w.bases[b], cells, r, 3, fallback)
		return request{Client: "eco", Fallback: fallback, Jobs: []jobSpec{{
			Class: "urgent", Engine: flex.EngineFLEX, Base: b, BaseHash: hashes[b],
			Edits: edits, Shards: ecoShards, Halo: ecoHalo,
		}}}
	}
	return w, nil
}

// bandLocalCells lists, for each band of l's shard plan that has any, the
// movable cells it owns whose rows widened by the halo stay inside the band:
// sideways moves of those cells dirty that band alone.
func bandLocalCells(l *flex.Layout) ([][]int, error) {
	plan, err := shard.PlanBands(l, ecoShards, ecoHalo)
	if err != nil {
		return nil, err
	}
	var out [][]int
	for _, b := range plan.Bands {
		var ids []int
		for _, id := range b.Source {
			if id < 0 {
				continue
			}
			c := &l.Cells[id]
			if c.GY-ecoHalo >= b.LoRow && c.GY+c.H+ecoHalo <= b.HiRow {
				ids = append(ids, id)
			}
		}
		if len(ids) >= 3 {
			out = append(out, ids)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no band has cells clear of its seams", l.Name)
	}
	return out, nil
}

// ecoMoves moves n distinct cells of ids sideways by 1–6 sites. With
// fallback set, the first move also jumps several rows, past the halo.
func ecoMoves(l *flex.Layout, ids []int, r *rand.Rand, n int, fallback bool) []flex.Edit {
	var edits []flex.Edit
	for i, p := range r.Perm(len(ids))[:n] {
		c := &l.Cells[ids[p]]
		dx := (1 + r.Intn(6)) * (2*r.Intn(2) - 1)
		gy := c.GY
		if i == 0 && fallback {
			jump := ecoHalo + 2 + r.Intn(4)
			if c.GY+jump <= l.NumRows-c.H {
				gy = c.GY + jump
			} else {
				gy = c.GY - jump
			}
		}
		edits = append(edits, flex.Edit{
			Op: flex.EditMove, Cell: c.Name,
			GX: clamp(c.GX+dx, 0, l.NumSitesX-c.W),
			GY: clamp(gy, 0, l.NumRows-c.H),
		})
	}
	return edits
}

// tenant-mix: two clients; each request is a batch of 8 small layouts (2
// urgent, 4 normal, 2 background). Six are fresh jittered layouts, three
// for FLEX and three for MGL; two resubmit a layout legalized at set-up
// (outcome-cache hits). The layout pool is the same for every seed; the
// seed picks the jitter and the mix.
func newTenantMix(seed int64) (*workload, error) {
	var pool []*flex.Layout
	for i := 0; i < 12; i++ {
		l, err := flex.GenerateCustom(260+20*i, 0.5+0.02*float64(i), int64(1000+i))
		if err != nil {
			return nil, fmt.Errorf("generate tenant layout %d: %w", i, err)
		}
		pool = append(pool, l)
	}
	engines := []flex.Engine{flex.EngineFLEX, flex.EngineMGL}
	var primed []jobSpec
	for i := 0; i < 8; i++ {
		l := jitter(pool[i], rng(seed, "tenant-prime", i, 0), 2, 1)
		primed = append(primed, inline(l, engines[i%2], "normal"))
	}
	w := &workload{name: "tenant-mix", clients: 2, seed: seed, tailP: 90}
	clients := []string{"tenant-a", "tenant-b"}
	w.setup = func() []request { return []request{{Client: clients[0], Jobs: primed}} }
	w.next = func(client, k int) request {
		r := rng(seed, "tenant", client, k)
		classes := []string{"urgent", "urgent", "normal", "normal", "normal", "normal", "background", "background"}
		r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		// Job i is a resubmit for kind[i] < 0, else a fresh job on
		// engines[kind[i]].
		kind := []int{-1, -1, 0, 0, 0, 1, 1, 1}
		r.Shuffle(len(kind), func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
		req := request{Client: clients[client]}
		for i, class := range classes {
			var j jobSpec
			if kind[i] < 0 {
				j = primed[r.Intn(len(primed))]
				j.Class, j.Resubmit = class, true
			} else {
				l := jitter(pool[r.Intn(len(pool))], r, 2, 1)
				j = inline(l, engines[kind[i]], class)
			}
			req.Jobs = append(req.Jobs, j)
		}
		return req
	}
	return w, nil
}
