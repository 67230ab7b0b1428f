package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"merlin/internal/codegen"
)

const (
	bootTimeout = 120 * time.Second
	stopTimeout = 20 * time.Second
	opTimeout   = 30 * time.Second // a request that takes longer is a failed request
)

// buildMerlind builds the real daemon from ./cmd/merlind into the output
// directory. The go tool skips the link when the binary is current.
func buildMerlind(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.Out, "merlind")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/merlind")
	cmd.Dir = cfg.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/merlind: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running merlind: the unmodified binary, fsync on, on an
// OS-chosen loopback port, its stderr captured to a file.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	client  *http.Client
	exited  chan error
	// Boot is spawn → first 200 from /healthz: journal open plus the
	// genesis compile or the snapshot restore.
	Boot time.Duration
}

// freePort asks the OS for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns merlind over dataDir and waits until it serves.
// policyPath is the genesis policy ("" on a restart: the journal has it).
func startDaemon(bin, dataDir, policyPath, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-data", dataDir, "-topo", daemonTopoSpec, "-workers", "2"}
	if policyPath != "" {
		args = append(args, "-policy", policyPath)
	}
	d := &daemon{
		cmd:     exec.Command(bin, args...),
		base:    "http://" + addr,
		logPath: logPath,
		exited:  make(chan error, 1),
		// One keep-alive connection: the load is one closed-loop client
		// that waits for each ack, as operator tooling or a tenant agent
		// does.
		client: &http.Client{
			Timeout:   opTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
	d.cmd.Stderr = logFile
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }() // the one Wait; stop and kill read its result
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.Boot = time.Since(start)
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("merlind exited before serving: %v (see %s)", err, logPath)
		default:
		}
		if time.Since(start) > bootTimeout {
			d.kill()
			return nil, fmt.Errorf("merlind did not serve /healthz within %v (see %s)", bootTimeout, logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop sends SIGTERM and waits for the clean shutdown (final snapshot,
// journal close), killing the process if it overstays.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("merlind exited: %v (see %s)", err, d.logPath)
		}
		return nil
	case <-time.After(stopTimeout):
		d.kill()
		return fmt.Errorf("merlind ignored SIGTERM for %v and was killed", stopTimeout)
	}
}

// do sends one request and reads the whole reply, so the connection is
// reused. The duration runs from request written to body read.
func (d *daemon) do(method, path string, body []byte) (status int, reply []byte, dur time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(start), err
}

func (d *daemon) getJSON(path string, v any) error {
	status, reply, _, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, truncate(string(reply), 200))
	}
	return json.Unmarshal(reply, v)
}

// daemonStats is GET /v1/stats.
type daemonStats struct {
	Boot     string         `json:"boot"`
	BootSeq  uint64         `json:"boot_seq"`
	Compiler map[string]int `json:"compiler"`
	Journal  struct {
		Appends uint64 `json:"appends"`
		Commits uint64 `json:"commits"`
		LastSeq uint64 `json:"last_seq"`
	} `json:"journal"`
}

// daemonOutput is GET /v1/result: the compiled-output summary.
type daemonOutput struct {
	Counts codegen.Counts      `json:"counts"`
	Total  int                 `json:"total"`
	Paths  map[string][]string `json:"paths"`
}

// logErrors scans merlind's captured stderr for snapshot or journal
// trouble: a run with either is a failed run.
func logErrors(logPath string) []string {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return []string{"cannot read merlind's stderr: " + err.Error()}
	}
	var bad []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "snapshot:") || strings.Contains(line, "journal") ||
			strings.Contains(line, "close:") || strings.Contains(line, "panic") {
			bad = append(bad, line)
		}
	}
	return bad
}
