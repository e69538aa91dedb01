package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// base returns the zero-flag configuration (defaults applied) with
// overrides from fn, so each table entry states only what it changes.
func base(fn func(*cliConfig)) cliConfig {
	cfg := cliConfig{addr: ":8080", metrics: true, logLevel: "info"}
	if fn != nil {
		fn(&cfg)
	}
	return cfg
}

// TestParseArgsCacheImplications pins the flag-validation satellite:
// -cachebytes and -cachedir must not be silently ignored — each implies
// -cache — and an explicitly empty -cachedir is a usage error.
func TestParseArgsCacheImplications(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr bool
		want    cliConfig
	}{
		{
			name: "defaults",
			args: nil,
			want: base(nil),
		},
		{
			name: "plain cache",
			args: []string{"-cache"},
			want: base(func(c *cliConfig) { c.cache = true }),
		},
		{
			name: "cachebytes implies cache",
			args: []string{"-cachebytes", "4096"},
			want: base(func(c *cliConfig) { c.cache = true; c.cacheBytes = 4096 }),
		},
		{
			name: "cachedir implies cache",
			args: []string{"-cachedir", "/tmp/spill"},
			want: base(func(c *cliConfig) { c.cache = true; c.cacheDir = "/tmp/spill" }),
		},
		{
			name: "all together",
			args: []string{"-addr", ":9999", "-cache", "-cachebytes", "1", "-cachedir", "d"},
			want: base(func(c *cliConfig) {
				c.addr = ":9999"
				c.cache = true
				c.cacheBytes = 1
				c.cacheDir = "d"
			}),
		},
		{
			name: "querytimeout duration",
			args: []string{"-querytimeout", "500ms"},
			want: base(func(c *cliConfig) { c.queryTimeout = 500 * time.Millisecond }),
		},
		{
			name: "querytimeout zero means unbounded",
			args: []string{"-querytimeout", "0"},
			want: base(nil),
		},
		{
			name: "slowquery duration",
			args: []string{"-slowquery", "250ms"},
			want: base(func(c *cliConfig) { c.slowQuery = 250 * time.Millisecond }),
		},
		{
			name: "metrics disabled",
			args: []string{"-metrics=false"},
			want: base(func(c *cliConfig) { c.metrics = false }),
		},
		{
			name: "pprofaddr",
			args: []string{"-pprofaddr", "localhost:6060"},
			want: base(func(c *cliConfig) { c.pprofAddr = "localhost:6060" }),
		},
		{
			name: "loglevel debug",
			args: []string{"-loglevel", "debug"},
			want: base(func(c *cliConfig) { c.logLevel = "debug" }),
		},
		{
			name:    "negative slowquery is a usage error",
			args:    []string{"-slowquery", "-1s"},
			wantErr: true,
		},
		{
			name:    "malformed slowquery is a usage error",
			args:    []string{"-slowquery", "never"},
			wantErr: true,
		},
		{
			name:    "empty pprofaddr is a usage error",
			args:    []string{"-pprofaddr", ""},
			wantErr: true,
		},
		{
			name:    "unknown loglevel is a usage error",
			args:    []string{"-loglevel", "verbose"},
			wantErr: true,
		},
		{
			name:    "empty cachedir is a usage error",
			args:    []string{"-cachedir", ""},
			wantErr: true,
		},
		{
			name:    "negative querytimeout is a usage error",
			args:    []string{"-querytimeout", "-1s"},
			wantErr: true,
		},
		{
			name:    "malformed querytimeout is a usage error",
			args:    []string{"-querytimeout", "fast"},
			wantErr: true,
		},
		{
			name:    "unknown flag",
			args:    []string{"-bogus"},
			wantErr: true,
		},
		{
			name:    "workers is an unknown flag",
			args:    []string{"-workers", "2"},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var errOut bytes.Buffer
			cfg, err := parseArgs(tt.args, &errOut)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parseArgs(%q) accepted, config %+v", tt.args, cfg)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v\n%s", tt.args, err, errOut.String())
			}
			if *cfg != tt.want {
				t.Errorf("parseArgs(%q) = %+v, want %+v", tt.args, *cfg, tt.want)
			}
		})
	}
}

// TestParseArgsEmptyCacheDirMessage pins that the usage error names the
// offending flag so the operator can tell it apart from a bad -addr.
func TestParseArgsEmptyCacheDirMessage(t *testing.T) {
	var errOut bytes.Buffer
	if _, err := parseArgs([]string{"-cachedir", ""}, &errOut); err == nil {
		t.Fatal("expected a usage error")
	}
	if !strings.Contains(errOut.String(), "cachedir") {
		t.Errorf("usage error does not name the flag: %s", errOut.String())
	}
}

// TestRunRejectsEmptyCacheDir pins the exit status: flag misuse is exit
// 2, matching the flag package's own convention.
func TestRunRejectsEmptyCacheDir(t *testing.T) {
	if code := run([]string{"-cachedir", ""}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestRunRejectsNegativeQueryTimeout pins the same convention for the
// deadline flag: a negative -querytimeout is flag misuse, exit 2.
func TestRunRejectsNegativeQueryTimeout(t *testing.T) {
	if code := run([]string{"-querytimeout", "-5s"}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestParseArgsNegativeQueryTimeoutMessage pins that the usage error
// names the offending flag.
func TestParseArgsNegativeQueryTimeoutMessage(t *testing.T) {
	var errOut bytes.Buffer
	if _, err := parseArgs([]string{"-querytimeout", "-1ms"}, &errOut); err == nil {
		t.Fatal("expected a usage error")
	}
	if !strings.Contains(errOut.String(), "querytimeout") {
		t.Errorf("usage error does not name the flag: %s", errOut.String())
	}
}

// TestRunRejectsNegativeSlowQuery pins exit 2 for the observability
// flags too, matching the -cachedir and -querytimeout conventions.
func TestRunRejectsNegativeSlowQuery(t *testing.T) {
	if code := run([]string{"-slowquery", "-1ms"}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestParseArgsObservabilityUsageMessages pins that each usage error
// names the offending flag so the operator can tell them apart.
func TestParseArgsObservabilityUsageMessages(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-slowquery", "-1s"}, "slowquery"},
		{[]string{"-pprofaddr", ""}, "pprofaddr"},
		{[]string{"-loglevel", "chatty"}, "loglevel"},
	}
	for _, tt := range tests {
		var errOut bytes.Buffer
		if _, err := parseArgs(tt.args, &errOut); err == nil {
			t.Fatalf("parseArgs(%q) accepted", tt.args)
		}
		if !strings.Contains(errOut.String(), tt.want) {
			t.Errorf("usage error for %q does not name %q: %s", tt.args, tt.want, errOut.String())
		}
	}
}

// TestPprofMuxServesProfiles pins the dedicated profiling mux: the
// pprof index answers on its own handler, never on the API mux.
func TestPprofMuxServesProfiles(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "goroutine") {
		t.Fatalf("pprof index does not list profiles:\n%s", b)
	}
}
