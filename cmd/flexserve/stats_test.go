package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	flex "github.com/flex-eda/flex"
)

// statsKeys is the /v1/stats wire contract: every key the endpoint served
// before ServiceStats became a view of the metric registry, with its JSON
// type. CI smoke steps and the perfbench harness read these names.
var statsKeys = map[string]string{
	"batches": "number", "jobs": "number", "errors": "number",
	"skipped": "number", "overloaded": "number", "shardedJobs": "number",
	"workers": "number", "fpgas": "number", "queueDepth": "number",
	"queuedJobs": "number", "retryAfterSeconds": "number",
	"scheduler": "string", "queuedByPriority": "object",
	"queuedByClient": "object", "runningByClient": "object",
	"clientQuota": "number", "clientQueueDepth": "number",
	"clientOverloaded": "number", "reconfigMs": "number",
	"reconfigs": "number", "reconfigTimeMs": "number",
	"cacheHits": "number", "cacheMisses": "number", "cacheHitRate": "number",
	"cacheEvictions": "number", "cacheEntries": "number",
	"cacheBytes": "number", "cacheMaxBytes": "number",
	"deviceWaitMs": "number", "deviceHoldMs": "number",
	"deviceAcquires": "number", "deviceContended": "number",
	"incremental": "number", "fallbacks": "number",
	"outcomeHits": "number", "outcomeMisses": "number",
	"outcomeEntries": "number", "outcomeBytes": "number",
	"outcomeDiskHits": "number", "outcomeLoaded": "number",
	"outcomeErrors": "number",
}

// fleetKeys and fleetNodeKeys are the coordinator-only "fleet" block's
// contract, top level and per node.
var (
	fleetKeys = map[string]string{
		"nodes": "array", "routed": "number", "retried": "number",
		"excluded": "number", "remoteWallMs": "number",
	}
	fleetNodeKeys = map[string]string{
		"addr": "string", "state": "string", "routed": "number",
		"failed": "number", "inflight": "number",
	}
)

// jsonType names a decoded JSON value's type.
func jsonType(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	}
	return "null"
}

// checkKeys asserts obj carries exactly the keys of want, each with the
// wanted JSON type.
func checkKeys(t *testing.T, what string, obj map[string]any, want map[string]string) {
	t.Helper()
	var diff []string
	for k, typ := range want {
		if v, ok := obj[k]; !ok {
			diff = append(diff, "missing "+k)
		} else if got := jsonType(v); got != typ {
			diff = append(diff, fmt.Sprintf("%s is %s, want %s", k, got, typ))
		}
	}
	for k := range obj {
		if _, ok := want[k]; !ok {
			diff = append(diff, "unexpected "+k)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("%s keys: %s", what, strings.Join(diff, "; "))
	}
}

// getStatsMap fetches /v1/stats as a generic JSON object.
func getStatsMap(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// postBody posts a JSON legalize body and returns the status and, for a
// 200, the decoded result lines.
func postBody(t *testing.T, ts *httptest.Server, body string) (int, []resultLine) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	lines, _ := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	return resp.StatusCode, lines
}

// TestStatsKeysGolden pins the /v1/stats key set and JSON types on a
// single-process server (no fleet block) and on a fleet coordinator.
func TestStatsKeysGolden(t *testing.T) {
	wsvc := flex.NewService(flex.WithWorkers(1), flex.WithCacheBytes(32<<20))
	worker := httptest.NewServer(newServer(wsvc, flex.NewFleetWorker(wsvc), 8<<20, 0.05, 8))
	t.Cleanup(func() {
		worker.Close()
		wsvc.Close()
	})
	coord := newTestServer(t, flex.WithWorkers(1), flex.WithCacheBytes(32<<20),
		flex.WithWorkersList(worker.URL))
	if code, _ := postBody(t, coord, `{"jobs":[{"design":"fft_a_md2","scale":0.008,"shards":2}]}`); code != http.StatusOK {
		t.Fatalf("coordinator legalize: status %d", code)
	}
	st := getStatsMap(t, coord)
	fleet, ok := st["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("coordinator stats have no fleet object: %v", st["fleet"])
	}
	delete(st, "fleet")
	checkKeys(t, "coordinator /v1/stats", st, statsKeys)
	checkKeys(t, "fleet", fleet, fleetKeys)
	nodes := fleet["nodes"].([]any)
	if len(nodes) != 1 {
		t.Fatalf("fleet nodes %v", nodes)
	}
	checkKeys(t, "fleet node", nodes[0].(map[string]any), fleetNodeKeys)

	checkKeys(t, "single-process /v1/stats", getStatsMap(t, newTestServer(t)), statsKeys)
}

// TestStatsViewMatchesMetrics runs a mixed workload — good jobs, a failing
// job, a sharded base, an ECO edit that splices and one that falls back, a
// queue_full 429 and a per-client 429 — then asserts every /v1/stats
// counter equals the /metrics series of the same fact.
func TestStatsViewMatchesMetrics(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithCacheBytes(32<<20),
		flex.WithOutcomeCacheBytes(64<<20), flex.WithQueueDepth(8), flex.WithClientQueueDepth(4))
	ts := httptest.NewServer(newServer(svc, nil, 8<<20, 0.05, 8))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	mustOK := func(body string) []resultLine {
		t.Helper()
		code, lines := postBody(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("status %d for %.80s", code, body)
		}
		for _, l := range lines {
			if l.Error != "" {
				t.Fatalf("job failed: %s", l.Error)
			}
		}
		return lines
	}
	mustOK(`{"jobs":[{"design":"fft_a_md2","scale":0.01},{"design":"fft_a_md2","scale":0.01,"engine":"mgl"}]}`)
	if _, lines := postBody(t, ts, `{"jobs":[{"base":"`+strings.Repeat("0", 64)+`"}]}`); len(lines) != 1 || lines[0].Error == "" {
		t.Fatalf("unknown base: want one error line, got %+v", lines)
	}

	base, err := flex.GenerateCustom(600, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, base); err != nil {
		t.Fatal(err)
	}
	text, _ := json.Marshal(sb.String())
	hash := mustOK(`{"jobs":[{"layout":` + string(text) + `,"shards":4,"halo":2}]}`)[0].LayoutHash
	var cell flex.Cell
	for _, c := range base.Cells {
		if !c.Fixed && c.Parity == 0 {
			cell = c
			break
		}
	}
	edit := func(gx, gy int) string {
		return fmt.Sprintf(`{"jobs":[{"base":%q,"shards":4,"halo":2,"edits":[{"op":"move","cell":%q,"gx":%d,"gy":%d}]}]}`,
			hash, cell.Name, gx, gy)
	}
	mustOK(edit((cell.GX+3)%(base.NumSitesX-cell.W), cell.GY))              // in the halo: splices
	mustOK(edit(cell.GX, (cell.GY+base.NumRows/2)%(base.NumRows-cell.H+1))) // far past the halo: falls back

	nine := `{"jobs":[` + strings.TrimSuffix(strings.Repeat(`{"design":"fft_a_md2","scale":0.01},`, 9), ",") + `]}`
	if code, _ := postBody(t, ts, nine); code != http.StatusTooManyRequests {
		t.Fatalf("9 jobs over depth 8: status %d, want 429", code)
	}
	five := `{"jobs":[` + strings.TrimSuffix(strings.Repeat(`{"design":"fft_a_md2","scale":0.01,"client":"acme"},`, 5), ",") + `]}`
	if code, _ := postBody(t, ts, five); code != http.StatusTooManyRequests {
		t.Fatalf("5 jobs over client depth 4: status %d, want 429", code)
	}

	st := getStatsMap(t, ts)
	metrics := map[string]float64{}
	for _, s := range scrape(t, ts) {
		metrics[s.name+"{"+s.labels+"}"] += s.value
		metrics[s.name] += s.value
	}
	for _, c := range []struct {
		key, series string
		min         float64 // the workload's floor, so no check passes vacuously
	}{
		{"jobs", "flex_serve_jobs_total", 6},
		{"errors", `flex_serve_jobs_total{status="error"}`, 1},
		{"skipped", `flex_serve_jobs_total{status="skipped"}`, 0},
		{"batches", "flex_serve_batches_total", 5},
		{"shardedJobs", "flex_serve_sharded_jobs_total", 3},
		{"overloaded", `flex_serve_rejects_total{reason="queue_full"}`, 1},
		{"clientOverloaded", `flex_serve_rejects_total{reason="client_queue_full"}`, 1},
		{"incremental", `flex_eco_jobs_total{path="incremental"}`, 1},
		{"fallbacks", `flex_eco_jobs_total{path="fallback"}`, 1},
		{"outcomeHits", "flex_cache_outcome_hits_total", 1},
		{"outcomeMisses", "flex_cache_outcome_misses_total", 1},
		{"outcomeDiskHits", "flex_cache_outcome_disk_hits_total", 0},
		{"outcomeLoaded", "flex_cache_outcome_loaded_total", 0},
		{"outcomeErrors", "flex_cache_outcome_errors_total", 0},
		{"outcomeEntries", "flex_cache_outcome_entries_count", 1},
		{"outcomeBytes", "flex_cache_outcome_bytes", 1},
		{"cacheHits", "flex_cache_layout_hits_total", 1},
		{"cacheMisses", "flex_cache_layout_misses_total", 1},
		{"cacheBytes", "flex_cache_layout_bytes", 1},
		{"queuedJobs", "flex_serve_queue_depth_jobs", 0},
	} {
		got, ok := metrics[c.series]
		if !ok {
			t.Fatalf("series %s missing from /metrics", c.series)
		}
		if want := st[c.key].(float64); got != want || want < c.min {
			t.Errorf("/v1/stats %s = %v, /metrics %s = %v (workload floor %v)", c.key, want, c.series, got, c.min)
		}
	}
}
