package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	flex "github.com/flex-eda/flex"
)

// serverArgs is the flexserve configuration every served run uses: two
// workers, one modeled FPGA board, the outcome cache on, tracing off.
var serverArgs = []string{"-workers", "2", "-fpgas", "1", "-outcome-cache-mb", "32", "-log-level", "warn"}

// server is one flexserve child process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	url     string
	done    chan struct{}
	waitErr error
	client  *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches flexserve and waits for /healthz. The child gets
// SIGKILL if this process dies without stopping it. A port lost to a race
// between freePort and the child's bind is retried on a fresh port.
func startServer(ctx context.Context, bin string, log io.Writer, extra ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("pick port: %w", err)
		}
		args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, serverArgs...)
		cmd := exec.Command(bin, append(args, extra...)...)
		cmd.Stdout, cmd.Stderr = log, log
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start flexserve: %w", err)
		}
		s := &server{
			cmd:  cmd,
			url:  fmt.Sprintf("http://127.0.0.1:%d", port),
			done: make(chan struct{}),
			client: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 4,
				DisableCompression:  true,
			}},
		}
		go func() {
			s.waitErr = cmd.Wait()
			close(s.done)
		}()
		if lastErr = s.waitHealthy(ctx, 30*time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, lastErr
}

func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("flexserve exited before it was healthy: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("flexserve did not answer /healthz within 30s")
}

// stop shuts flexserve down gracefully, killing it if it does not exit
// within 10 s, and returns once the process has ended. Safe to call twice.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
}

// procStats reads the child's CPU time (user+sys) and peak RSS from /proc.
func (s *server) procStats() (cpu time.Duration, hwmMB float64, err error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (100 Hz).
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+2:]))
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			hwmMB = kb / 1024
		}
	}
	return cpu, hwmMB, nil
}

// getJSON fetches a GET endpoint's JSON body.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats is the subset of /v1/stats the benchmark reads.
type stats struct {
	Incremental   int64 `json:"incremental"`
	Fallbacks     int64 `json:"fallbacks"`
	OutcomeHits   int64 `json:"outcomeHits"`
	OutcomeMisses int64 `json:"outcomeMisses"`
}

// wireJob is one job of the POST /v1/legalize body.
type wireJob struct {
	Layout   string      `json:"layout,omitempty"`
	Base     string      `json:"base,omitempty"`
	Edits    []flex.Edit `json:"edits,omitempty"`
	Engine   string      `json:"engine"`
	Shards   int         `json:"shards,omitempty"`
	Halo     int         `json:"halo,omitempty"`
	Priority int         `json:"priority,omitempty"`
	Client   string      `json:"client,omitempty"`
}

// body encodes a request as flexserve's JSON body. Inline layouts travel as
// flexpl text in the "layout" field: a raw flexpl body cannot ask for the
// legalized layout back.
func body(r request) ([]byte, error) {
	var req struct {
		Jobs          []wireJob `json:"jobs"`
		IncludeLayout bool      `json:"includeLayout"`
	}
	req.IncludeLayout = true
	for _, j := range r.Jobs {
		wj := wireJob{
			Engine: strings.ToLower(j.Engine.String()), Shards: j.Shards, Halo: j.Halo,
			Priority: priorities[j.Class], Client: r.Client,
		}
		if j.Text != "" {
			wj.Layout = j.Text
		} else {
			wj.Base = j.BaseHash
			wj.Edits = j.Edits
		}
		req.Jobs = append(req.Jobs, wj)
	}
	return json.Marshal(req)
}

// reply is one request's response as the client saw it. Lines are kept raw
// and parsed after the timed interval.
type reply struct {
	Status  int
	Latency time.Duration   // request sent → done line received
	First   time.Duration   // request sent → first line received
	Arrive  []time.Duration // request sent → each line received
	Lines   [][]byte
	Bytes   int
	Err     error
}

// post sends one request and reads its NDJSON stream to the end.
func (s *server) post(ctx context.Context, payload []byte) reply {
	var rp reply
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/legalize", bytes.NewReader(payload))
	if err != nil {
		rp.Err = err
		return rp
	}
	hreq.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		rp.Err = err
		return rp
	}
	defer resp.Body.Close()
	rp.Status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 256<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Since(sent)
			if rp.Lines == nil {
				rp.First = at
			}
			rp.Bytes += len(line)
			rp.Arrive = append(rp.Arrive, at)
			rp.Lines = append(rp.Lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rp.Err = err
			return rp
		}
	}
	rp.Latency = time.Since(sent)
	return rp
}
