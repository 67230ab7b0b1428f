package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs merlinc's real main instead of the tests when
// MERLINC_MAIN is set, so a test can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("MERLINC_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestBuildTopology(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		hosts   int // when the spec is valid
		wantErr string
	}{
		{spec: "fattree", hosts: 16},
		{spec: "fattree:4", hosts: 16},
		{spec: "fattree:2", hosts: 2},
		{spec: "linear:1", hosts: 1},
		{spec: "btree:2:1:1", hosts: 2},
		{spec: "stanford:2:1", hosts: 2},
		{spec: "twopath", hosts: 2},
		{spec: "example", hosts: 2},
		{spec: "fattree:3", wantErr: "K must be even, got 3"},
		{spec: "fattree:0", wantErr: `K must be an integer >= 2, got "0"`},
		{spec: "fattree:x", wantErr: `K must be an integer >= 2, got "x"`},
		{spec: "fattree:", wantErr: `K must be an integer >= 2, got ""`},
		{spec: "fattree:4:2", wantErr: "fattree takes 1 parameters, got 2"},
		{spec: "linear:-1", wantErr: `N must be an integer >= 1, got "-1"`},
		{spec: "btree:0", wantErr: `FANOUT must be an integer >= 1, got "0"`},
		{spec: "btree:2:-1", wantErr: `DEPTH must be an integer >= 0, got "-1"`},
		{spec: "stanford:4:0", wantErr: `HOSTS must be an integer >= 1, got "0"`},
		{spec: "example:3", wantErr: "example takes 0 parameters, got 1"},
		{spec: "mesh:4", wantErr: `unknown topology "mesh:4"`},
	} {
		tp, err := buildTopology(tc.spec)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.spec, err)
		case tc.wantErr == "" && len(tp.Hosts()) < tc.hosts:
			t.Errorf("%s: %d hosts, want at least %d", tc.spec, len(tp.Hosts()), tc.hosts)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestBadTopologyExitsOne: a spec the family cannot build ends merlinc
// with exit status 1 and the reason, not a panic.
func TestBadTopologyExitsOne(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-topology", "fattree:3", "-expr", "[ x : true -> .* ]")
	cmd.Env = append(os.Environ(), "MERLINC_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "K must be even") {
		t.Fatalf("output does not name the parameter:\n%s", out)
	}
}
