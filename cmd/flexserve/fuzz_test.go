package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	flex "github.com/flex-eda/flex"
)

// FuzzServeRequest drives POST /v1/legalize with fuzzed bodies — JSON job
// lists, or raw flexpl layouts steered by query parameters — on a
// one-worker service capped at scale 0.01. Whatever the input, the answer
// must be 200, 400, 413 or 429, and the server must still report healthy
// afterwards: no request may crash the process or wedge the pool.
func FuzzServeRequest(f *testing.F) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithCacheBytes(32<<20), flex.WithQueueDepth(64))
	f.Cleanup(func() { svc.Close() })
	srv := newServerWith(svc, nil, 64<<10, 0.01, 8, obsConfig{
		log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})

	// A valid JSON job, and the raw layout whose 5-row cell on a 2-row die
	// once crashed the analytical engine.
	f.Add(true, `{"jobs":[{"design":"fft_a_md2","scale":0.01,"engine":"mgl","shards":2,"priority":3}]}`, "")
	f.Add(false, "flexpl 1\ndesign x\ndie 4 2 8\ncells 1\nc0 0 0 1 5 any 0\n", "engine=analytical")
	f.Fuzz(func(t *testing.T, isJSON bool, body, query string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/legalize", strings.NewReader(body))
		req.URL.RawQuery = query
		if isJSON {
			req.Header.Set("Content-Type", "application/json")
		} else {
			req.Header.Set("Content-Type", "text/plain")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q query %q: %s", rec.Code, body, query, rec.Body.String())
		}

		health := httptest.NewRecorder()
		srv.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if health.Code != http.StatusOK {
			t.Fatalf("/healthz answered %d after body %q query %q", health.Code, body, query)
		}
	})
}
