package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProcs is the server's GOMAXPROCS and the number of closed-loop
// clients: the sandbox has 2 cores, and one load-generating process may
// not run more clients than that.
const serverProcs = 2

// bootDeadline bounds boot → /readyz 200. A server that has not come up
// by then is a failed run, not a hung benchmark.
const bootDeadline = 20 * time.Second

// paths locates the checkout the benchmark runs in. Everything the
// benchmark writes (binaries, data dirs, span files) goes under build.
type paths struct {
	root  string // checkout root (holds cmd/ejserve)
	build string // root/.bench_build
}

func findPaths() (paths, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "ejserve", "main.go")); err == nil {
			abs, err := filepath.Abs(root)
			if err != nil {
				return paths{}, err
			}
			p := paths{root: abs, build: filepath.Join(abs, ".bench_build")}
			return p, os.MkdirAll(filepath.Join(p.build, "tmp"), 0o755)
		}
	}
	return paths{}, fmt.Errorf("cmd/ejserve not found: run from the repository root or from benchmark/")
}

// buildServer compiles cmd/ejserve from the checkout's source into the
// build directory and returns the binary's path.
func buildServer(p paths) (string, error) {
	bin := filepath.Join(p.build, "bin", "ejserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ejserve")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ejserve: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live server child so that any exit path — normal
// return, error, or signal — kills them all.
var children struct {
	mu    sync.Mutex
	procs map[*server]bool
}

func killAllChildren() {
	children.mu.Lock()
	live := make([]*server, 0, len(children.procs))
	for s := range children.procs {
		live = append(live, s)
	}
	children.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// installSignalHandler makes SIGINT/SIGTERM kill the children before the
// benchmark dies.
func installSignalHandler() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAllChildren()
		os.Exit(130)
	}()
}

// server is one running ejserve child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	waited chan struct{}
	client *http.Client
}

// freePort asks the kernel for an unused port by listening on :0.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots ejserve with the workload's flags and waits for
// /readyz to answer 200. dataDir is "" for memory-only workloads.
func startServer(bin string, w *workload, dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-dim", strconv.Itoa(embedDim)}
	args = append(args, w.Flags...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	s := &server{
		cmd:    exec.Command(bin, args...),
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		waited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serverProcs}},
	}
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ejserve: %w", err)
	}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*server]bool)
	}
	children.procs[s] = true
	children.mu.Unlock()
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant: every child ends by SIGKILL
		close(s.waited)
	}()

	deadline := time.Now().Add(bootDeadline)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.waited:
			s.kill()
			return nil, fmt.Errorf("ejserve exited during boot:\n%s", s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ejserve not ready after %v:\n%s", bootDeadline, s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the child has ended. Safe to call
// more than once.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.waited
	s.client.CloseIdleConnections()
	children.mu.Lock()
	delete(children.procs, s)
	children.mu.Unlock()
}

// cpuSeconds is the child's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from
	// after its closing parenthesis.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat cpu fields")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found")
}

// ---- HTTP operations ---------------------------------------------------

// do sends one request and returns the status and the whole body.
func (s *server) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect2xx turns a non-2xx reply into an error carrying the body.
func expect2xx(status int, body []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if status < 200 || status > 299 {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *server) ingest(t *table) error {
	q := url.Values{"name": {t.Name}, "schema": {schemaSpec}}
	_, err := expect2xx(s.do(http.MethodPost, "/tables?"+q.Encode(), "text/csv", []byte(rowsCSV(t.Rows))))
	return err
}

type queryBody struct {
	SQL         string `json:"sql"`
	Limit       int    `json:"limit,omitempty"`
	IncludeRows bool   `json:"include_rows,omitempty"`
}

type deleteBody struct {
	Key  string   `json:"key"`
	Keys []string `json:"keys"`
}

// send performs one workload op and returns the status and body.
func (s *server) send(o op) (int, []byte, error) {
	switch o.Kind {
	case opQuery:
		b, _ := json.Marshal(queryBody{SQL: o.SQL, Limit: o.Limit, IncludeRows: o.Rows}) // cannot fail: plain struct
		return s.do(http.MethodPost, "/query", "application/json", b)
	case opUpsert:
		return s.do(http.MethodPost, "/tables/"+o.Table+"/rows?key=id", "text/csv", []byte(rowsCSV(o.Batch)))
	case opDelete:
		b, _ := json.Marshal(deleteBody{Key: "id", Keys: o.Keys}) // cannot fail: plain struct
		return s.do(http.MethodDelete, "/tables/"+o.Table+"/rows", "application/json", b)
	case opSnapshot:
		return s.do(http.MethodPost, "/snapshot", "", nil)
	}
	return 0, nil, fmt.Errorf("unknown op kind %q", o.Kind)
}

// stats fetches /stats into v.
func (s *server) stats(v any) error {
	body, err := expect2xx(s.do(http.MethodGet, "/stats", "", nil))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// setup ingests the tables and runs the warm-up ops: the part of set-up
// after /readyz.
func (s *server) setup(in *inputs) error {
	for _, t := range in.Tables {
		if err := s.ingest(t); err != nil {
			return fmt.Errorf("ingesting %s: %w", t.Name, err)
		}
	}
	for _, o := range in.Warm {
		if _, err := expect2xx(s.send(o)); err != nil {
			return fmt.Errorf("warm-up %q: %w", o.SQL, err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
