package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"srda/internal/obs"
)

// proc is one srdaserve process started by the benchmark.
type proc struct {
	name      string
	cmd       *exec.Cmd
	addr      string // base URL of the serving listener
	debugAddr string // base URL of the -debug-addr listener, if any
	done      chan struct{}
	mu        sync.Mutex
	log       []string // last stderr lines, for diagnostics
}

var (
	procsMu sync.Mutex
	live    = map[*proc]bool{}
)

// killAll stops every process still running; main calls it on every
// exit path so no server outlives the benchmark.
func killAll() {
	procsMu.Lock()
	defer procsMu.Unlock()
	for p := range live {
		_ = p.cmd.Process.Kill()
		<-p.done
		delete(live, p)
	}
}

func init() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
}

// startProc launches srdaserve with args and waits until it logs its
// listening address (and the debug listener's, when wantDebug).
func startProc(cfg config, name string, wantDebug bool, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "srdaserve"), args...)
	cmd.Dir = cfg.work
	// Should the benchmark itself be killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	procsMu.Lock()
	live[p] = true
	procsMu.Unlock()
	addrs := make(chan [2]string, 8) // one per listener line; never more than a few
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			if len(p.log) > 50 {
				p.log = p.log[1:]
			}
			p.mu.Unlock()
			if a := field(line, "addr"); a != "" {
				switch {
				case strings.Contains(line, "msg=serving"):
					addrs <- [2]string{"serve", a}
				case strings.Contains(line, `msg="debug listener up"`):
					addrs <- [2]string{"debug", a}
				}
			}
		}
		_ = cmd.Wait()
		close(p.done)
	}()
	timeout := time.After(30 * time.Second)
	for p.addr == "" || (wantDebug && p.debugAddr == "") {
		select {
		case a := <-addrs:
			if a[0] == "serve" {
				p.addr = "http://" + a[1]
			} else {
				p.debugAddr = "http://" + a[1]
			}
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up: %s", name, p.lastLog())
		case <-timeout:
			p.stop()
			return nil, fmt.Errorf("%s did not report its address: %s", name, p.lastLog())
		}
	}
	return p, nil
}

// field extracts key=value from a log/slog text line.
func field(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

func (p *proc) lastLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// stop drains the process with SIGTERM (SIGKILL after a grace period)
// and returns the user plus system CPU it used over its lifetime.
func (p *proc) stop() time.Duration {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	procsMu.Lock()
	delete(live, p)
	procsMu.Unlock()
	st := p.cmd.ProcessState
	if st == nil {
		return 0
	}
	return st.UserTime() + st.SystemTime()
}

// ctlClient is for set-up probes and scrapes, never for measured load.
var ctlClient = &http.Client{Timeout: 10 * time.Second}

func getBody(url string) ([]byte, error) {
	resp, err := ctlClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

func postJSON(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// scrape reads a process's Prometheus exposition into a flat map keyed
// by sample name (labels are summed over).
func scrape(base string) (map[string]float64, error) {
	body, err := getBody(base + "/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParsePrometheus(body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// totalAlloc reads the cumulative heap bytes a process allocated, from
// its expvar memstats.
func totalAlloc(debugBase string) (float64, error) {
	body, err := getBody(debugBase + "/debug/vars")
	if err != nil {
		return 0, err
	}
	var vars struct {
		Memstats struct{ TotalAlloc float64 } `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return 0, err
	}
	return vars.Memstats.TotalAlloc, nil
}
