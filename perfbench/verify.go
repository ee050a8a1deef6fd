package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/eco"
)

// resultLine is the subset of flexserve's NDJSON job line the benchmark
// reads; doneLine is the closing summary.
type resultLine struct {
	Index          int     `json:"index"`
	Error          string  `json:"error"`
	Skipped        bool    `json:"skipped"`
	Legal          *bool   `json:"legal"`
	Movable        int     `json:"movable"`
	AveDis         float64 `json:"aveDis"`
	ModeledSeconds float64 `json:"modeledSeconds"`
	SchedWaitMs    float64 `json:"schedWaitMs"`
	DeviceWaitMs   float64 `json:"deviceWaitMs"`
	DeviceHoldMs   float64 `json:"deviceHoldMs"`
	Reconfigs      int     `json:"reconfigs"`
	Layout         string  `json:"layout"`
	LayoutHash     string  `json:"layoutHash"`
}

type doneLine struct {
	Done   bool    `json:"done"`
	Jobs   int     `json:"jobs"`
	Errors int     `json:"errors"`
	WallMs float64 `json:"wallMs"`
}

// sample is one request of a run: what was sent and what came back. Lines
// holds the parsed result line of each job (by job index) and At its
// arrival; Problems lists every failed check.
type sample struct {
	Client, K int
	Req       request
	Reply     reply
	Lines     []resultLine
	At        []time.Duration
	AveDis    []float64 // benchmark-measured AveDis per job
	// ServerMs is flexserve's own time for the request: the summary line's
	// wallMs, from handing the jobs to its flex.Service to the last result.
	ServerMs float64
	Problems []string
}

func (s *sample) failf(format string, args ...any) {
	s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
}

// parse decodes the reply's lines. A non-200 status, a missing or wrong
// summary, an error or skipped line, or a missing job line is a failure.
func (s *sample) parse() {
	rp := &s.Reply
	if rp.Err != nil {
		s.failf("transport: %v", rp.Err)
		return
	}
	if rp.Status != 200 {
		s.failf("status %d", rp.Status)
		return
	}
	n := len(s.Req.Jobs)
	s.Lines = make([]resultLine, n)
	s.At = make([]time.Duration, n)
	s.AveDis = make([]float64, n)
	seen := make([]bool, n)
	var done *doneLine
	for i, raw := range rp.Lines {
		if bytes.HasPrefix(raw, []byte(`{"done":`)) {
			done = new(doneLine)
			if err := json.Unmarshal(raw, done); err != nil {
				s.failf("summary line: %v", err)
			}
			continue
		}
		var l resultLine
		if err := json.Unmarshal(raw, &l); err != nil {
			s.failf("result line: %v", err)
			continue
		}
		if l.Index < 0 || l.Index >= n || seen[l.Index] {
			s.failf("result line with bad or repeated index %d", l.Index)
			continue
		}
		seen[l.Index] = true
		s.Lines[l.Index], s.At[l.Index] = l, rp.Arrive[i]
		if l.Error != "" || l.Skipped {
			s.failf("job %d: error %q (skipped=%v)", l.Index, l.Error, l.Skipped)
		}
	}
	for i, ok := range seen {
		if !ok {
			s.failf("job %d: no result line", i)
		}
	}
	if done == nil || !done.Done || done.Jobs != n || done.Errors != 0 {
		s.failf("summary line missing or wrong: %+v", done)
	} else {
		s.ServerMs = done.WallMs
	}
	if len(rp.Arrive) > 0 {
		rp.Latency = rp.Arrive[len(rp.Arrive)-1]
	}
}

// input returns the layout job j legalizes: its inline layout, or for an
// eco job the base with the edits applied.
func (w *workload) input(j jobSpec) (*flex.Layout, error) {
	if j.Input != nil {
		return j.Input, nil
	}
	return eco.Apply(w.bases[j.Base], j.Edits)
}

// verify checks every job of the sample against its input, independently
// of the server: the returned layout is legal under flex.Check, holds the
// same movable cells, leaves fixed cells where they were, and its served
// aveDis equals the benchmark's own flex.Measure.
func (w *workload) verify(s *sample) {
	if len(s.Problems) > 0 || s.Lines == nil {
		return
	}
	for i, j := range s.Req.Jobs {
		l := s.Lines[i]
		if l.Legal == nil || !*l.Legal {
			s.failf("job %d: served as not legal", i)
			continue
		}
		in, err := w.input(j)
		if err != nil {
			s.failf("job %d: rebuild input: %v", i, err)
			continue
		}
		if j.BaseHash != "" && l.LayoutHash != flex.LayoutHash(in) {
			s.failf("job %d: layoutHash %s does not match the edited input", i, l.LayoutHash)
		}
		out, err := flex.ReadLayout(strings.NewReader(l.Layout))
		if err != nil {
			s.failf("job %d: returned layout: %v", i, err)
			continue
		}
		if v := flex.Check(out, 4); len(v) > 0 {
			s.failf("job %d: returned layout illegal: %v", i, v)
		}
		if len(out.Cells) != len(in.Cells) {
			s.failf("job %d: %d cells returned, %d sent", i, len(out.Cells), len(in.Cells))
			continue
		}
		movable := 0
		for c := range in.Cells {
			a, b := &in.Cells[c], &out.Cells[c]
			if a.Name != b.Name || a.Fixed != b.Fixed {
				s.failf("job %d: cell %d changed identity (%s -> %s)", i, c, a.Name, b.Name)
				break
			}
			if a.Fixed && (a.X != b.X || a.Y != b.Y) {
				s.failf("job %d: fixed cell %s moved", i, a.Name)
				break
			}
			if !a.Fixed {
				movable++
			}
		}
		if l.Movable != movable {
			s.failf("job %d: served movable %d, input has %d", i, l.Movable, movable)
		}
		m := flex.Measure(out)
		s.AveDis[i] = m.AveDis
		if m.AveDis != l.AveDis {
			s.failf("job %d: served aveDis %v, measured %v", i, l.AveDis, m.AveDis)
		}
	}
}

// verifyFullRerun checks that an eco answer is byte-identical to a full,
// uncached sharded run of the same edited layout.
func (w *workload) verifyFullRerun(ctx context.Context, svc *flex.Service, s *sample) {
	if len(s.Problems) > 0 {
		return
	}
	for i, j := range s.Req.Jobs {
		in, err := w.input(j)
		if err != nil {
			s.failf("job %d: rebuild input: %v", i, err)
			continue
		}
		sum, err := svc.Submit(ctx, []flex.BatchJob{{
			Layout: in, Engine: j.Engine, Shards: j.Shards, ShardHalo: j.Halo,
		}}, flex.SubmitOptions{})
		if err == nil {
			err = sum.Results[0].Err
		}
		if err != nil {
			s.failf("job %d: full re-run failed: %v", i, err)
			continue
		}
		if encode(sum.Results[0].Outcome.Layout) != s.Lines[i].Layout {
			s.failf("job %d: incremental answer differs from the full re-run", i)
		}
	}
}
