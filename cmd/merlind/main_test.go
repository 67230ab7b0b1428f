package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs merlind's real main instead of the tests when
// MERLIND_MAIN is set, so a test can start the daemon as a subprocess of
// this binary.
func TestMain(m *testing.M) {
	if os.Getenv("MERLIND_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterHealthzShutsDownCleanly boots merlind in a
// subprocess ten times and sends SIGTERM the moment /healthz first
// answers 200. Each run must take the shutdown path: exit 0 and log
// "clean shutdown" after its final snapshot.
func TestSIGTERMRightAfterHealthzShutsDownCleanly(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "genesis.m")
	if err := os.WriteFile(policy, []byte("[ x : (eth.src = h0_0 and eth.dst = h2_0) -> .* at min(10Mbps) ]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 10; run++ {
		addr := freeAddr(t)
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], "-addr", addr, "-data", t.TempDir(),
			"-topo", "ring,n=4,hosts=1", "-policy", policy)
		cmd.Env = append(os.Environ(), "MERLIND_MAIN=1")
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// out is read only after exited closes: Wait returns once the
		// process's output has been copied into it.
		var waitErr error
		exited := make(chan struct{})
		go func() { waitErr = cmd.Wait(); close(exited) }()
		if !awaitHealthy(addr, exited) {
			cmd.Process.Kill()
			<-exited
			t.Fatalf("run %d: merlind never answered /healthz:\n%s", run, out.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-exited
			t.Fatalf("run %d: merlind did not exit after SIGTERM:\n%s", run, out.String())
		}
		if waitErr != nil {
			t.Fatalf("run %d: merlind exited: %v\n%s", run, waitErr, out.String())
		}
		if !strings.Contains(out.String(), "clean shutdown") {
			t.Fatalf("run %d: no clean shutdown logged:\n%s", run, out.String())
		}
	}
}

// TestListenFailureExitsNonZero starts merlind on a port another socket
// holds. The boot must fail before recovery: a non-zero exit, the bind
// error on stderr, and no journal written under -data.
func TestListenFailureExitsNonZero(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	dir := t.TempDir()
	data, policy := filepath.Join(dir, "data"), filepath.Join(dir, "genesis.m")
	if err := os.WriteFile(policy, []byte("[ x : (eth.src = h0_0 and eth.dst = h2_0) -> .* ]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], "-addr", held.Addr().String(), "-data", data,
		"-topo", "ring,n=4,hosts=1", "-policy", policy)
	cmd.Env = append(os.Environ(), "MERLIND_MAIN=1")
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("merlind on a taken port: %v, want a non-zero exit\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "address already in use") {
		t.Fatalf("stderr does not name the bind error:\n%s", stderr.String())
	}
	if entries, err := os.ReadDir(data); !errors.Is(err, os.ErrNotExist) && len(entries) > 0 {
		t.Fatalf("a failed boot wrote %d entries under -data (%v)", len(entries), err)
	}
}

// freeAddr returns a loopback address with a port nothing listens on now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// awaitHealthy polls addr's /healthz until it answers 200, reporting
// false if the process exits first or 30 s pass.
func awaitHealthy(addr string, exited <-chan struct{}) bool {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return false
		default:
		}
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestParseTopoSpecNamesBadParameter: a parameter the family does not have
// or cannot build is an error naming it, never a panic or a silent
// truncation.
func TestParseTopoSpecNamesBadParameter(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"fattree,k=3", "k must be even, got 3"},
		{"fattree,k=2.5", `k must be an integer >= 2, got "2.5"`},
		{"fattree,k=0", `k must be an integer >= 2, got "0"`},
		{"fattree,n=4", `fattree has no parameter "n"`},
		{"ring,n=2", `n must be an integer >= 3, got "2"`},
		{"ring,n=8,hosts=-1", `hosts must be an integer >= 0, got "-1"`},
		{"linear,n=0", `n must be an integer >= 1, got "0"`},
		{"star,n=x", `n must be an integer >= 1, got "x"`},
		{"example,cap=0", `cap must be a positive number of bits/s, got "0"`},
		{"example,cap=-1e9", `cap must be a positive number of bits/s, got "-1e9"`},
	} {
		if _, err := ParseTopoSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.spec, err, tc.want)
		}
	}
	tp, err := ParseTopoSpec("fattree,k=2,cap=1e8")
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Hosts()) != 2 {
		t.Fatalf("fattree k=2: %d hosts, want 2", len(tp.Hosts()))
	}
}
