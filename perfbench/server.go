package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `cfa serve` child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives Wait's result once
}

// command builds a child of the cfa binary that dies with the benchmark,
// so an interrupted run leaves no server behind.
func command(cfa string, args ...string) *exec.Cmd {
	cmd := exec.Command(cfa, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// trainBundle runs `cfa train` on a trace CSV, writing the bundle to model.
func trainBundle(cfa, csv, model, learner string, warmup float64) error {
	cmd := command(cfa, "train", "-in", csv, "-model", model, "-learner", learner,
		"-warmup", strconv.FormatFloat(warmup, 'f', -1, 64))
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("cfa train -learner %s: %v: %s", learner, err, out)
	}
	return nil
}

// startServer boots `cfa serve` on an ephemeral loopback port and waits
// until /readyz answers 200.
func startServer(cfa, model string) (*server, error) {
	cmd := command(cfa, "serve", "-model", model, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cfa serve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := listenAddr(sc.Text()); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case err := <-s.done:
		return nil, fmt.Errorf("cfa serve exited before listening: %v: %s", err, stderr.Bytes())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("cfa serve did not report a listen address within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cfa serve at %s not ready within 60s", s.url)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr extracts the address from cfa serve's "listening on" line.
func listenAddr(line string) (string, bool) {
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(marker):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

// pid is the server's process id, for /proc CPU accounting.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		return <-s.done
	}
}

// scrapeMetrics reads the server's /metrics exposition as a map from
// series (name plus label set, as printed) to value.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text-format samples.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = max(strings.IndexByte(line, ' '), 0)
		}
		f := strings.Fields(line[cut:])
		if cut == 0 || len(f) == 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// sumSeries adds the samples of family name whose label set passes keep
// (nil keeps all).
func sumSeries(m map[string]float64, name string, keep func(labels string) bool) float64 {
	total := 0.0
	for k, v := range m {
		labels, ok := strings.CutPrefix(k, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		if keep == nil || keep(labels) {
			total += v
		}
	}
	return total
}

// admitCounts are the server-side overload counters a phase is checked
// against: requests shed (admission, in-flight gate and brownout sampling)
// and records scored at a brownout level above 0.
func admitCounts(m map[string]float64) (shed, degraded float64) {
	shed = sumSeries(m, "cfa_shed_total", nil) + sumSeries(m, "cfa_inflight_shed_total", nil)
	degraded = sumSeries(m, "cfa_brownout_verdicts_total", func(l string) bool {
		return !strings.Contains(l, `level="0"`)
	})
	return shed, degraded
}
