package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"locat"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8080" || c.pprofOn {
		t.Fatalf("defaults: addr=%q pprof=%v", c.addr, c.pprofOn)
	}
	want := locat.ServiceOptions{Workers: 2}
	if !reflect.DeepEqual(c.opts, want) {
		t.Fatalf("default options = %+v, want %+v", c.opts, want)
	}
}

func TestParseFlagsTenants(t *testing.T) {
	c, err := parseFlags([]string{
		"-tenant", "acme:max_inflight=4,rate=2.5,burst=5,max_cluster_sec=1e6",
		"-tenant", "*:max_inflight=8",
		"-tenant", "vip",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]locat.TenantBudget{
		"acme": {MaxInFlight: 4, SubmitRate: 2.5, SubmitBurst: 5, MaxClusterSec: 1e6},
		"*":    {MaxInFlight: 8},
		"vip":  {},
	}
	if !reflect.DeepEqual(c.opts.Tenants, want) {
		t.Fatalf("tenants = %+v, want %+v", c.opts.Tenants, want)
	}
}

func TestParseFlagsRejectsBadTenants(t *testing.T) {
	for _, v := range []string{
		"",                    // empty name
		":max_inflight=4",     // empty name with spec
		"acme:max_inflight",   // not key=value
		"acme:rate=-1",        // negative budget
		"acme:bogus=1",        // unknown key
		"acme:max_inflight=x", // not a number
		"acme:rate=NaN",       // not a number either, though it parses
		"acme:rate=Inf",       // no finite budget
		"acme:max_cluster_sec=+Inf",
		"acme:max_inflight=1e19", // past int: would wrap to no limit
		"acme:burst=1e300",
		"acme:max_inflight=0.5", // would truncate to 0, no limit
		"acme:burst=2.5",
	} {
		if _, err := parseFlags([]string{"-tenant", v}, io.Discard); err == nil {
			t.Errorf("parseFlags(-tenant %q) accepted", v)
		}
	}
	if _, err := parseFlags([]string{"-tenant", "a:rate=1", "-tenant", "a:rate=2"}, io.Discard); err == nil {
		t.Error("duplicate -tenant accepted")
	}
}

// FuzzParseTenant: a -tenant value either fails or names a tenant (non-empty,
// trimmed) with a budget whose every field is finite and non-negative — no
// spelling of a number may turn a budget into "unlimited" by wrapping or
// truncating.
func FuzzParseTenant(f *testing.F) {
	for _, v := range []string{
		"acme:max_inflight=4,rate=2.5,burst=5,max_cluster_sec=1e6",
		"*:max_inflight=8", " vip ", "acme:rate=NaN", "acme:max_inflight=1e19",
		"acme:burst=0.5", "a:rate=-0", "a: max_inflight = 3 ,burst=0x10",
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		name, b, err := parseTenant(v)
		if err != nil {
			return
		}
		if name == "" || name != strings.TrimSpace(name) {
			t.Fatalf("parseTenant(%q) name %q", v, name)
		}
		for _, x := range []float64{float64(b.MaxInFlight), b.SubmitRate, float64(b.SubmitBurst), b.MaxClusterSec} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("parseTenant(%q) budget %+v", v, b)
			}
		}
	})
}

func TestParseFlagsFaultTolerance(t *testing.T) {
	c, err := parseFlags([]string{
		"-store", "/tmp/hist",
		"-resume",
		"-max-queue", "16",
		"-job-retries", "3",
		"-chaos", "drop=0.3,maxfail=2,seed=7",
		"-workers", "4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o := c.opts
	if !o.Resume || o.QueueCap != 16 || o.JobRetries != 3 ||
		o.Chaos != "drop=0.3,maxfail=2,seed=7" || o.HistoryDir != "/tmp/hist" || o.Workers != 4 {
		t.Fatalf("options = %+v", o)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-max-queue", "-1"},
		{"-job-retries", "-2"},
		{"-resume"}, // without -store there is nothing to resume from
		{"-no-such-flag"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// The chaos spec is validated when the service starts, so a typo fails the
// process instead of silently tuning without fault injection.
func TestChaosSpecRejectedAtStartup(t *testing.T) {
	c, err := parseFlags([]string{"-chaos", "bogus=1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := locat.NewService(c.opts); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("NewService error = %v; want chaos-spec rejection", err)
	}
}

// TestStalledClientIsDisconnected: the server main builds sets the header and
// idle deadlines, and a client that stops half-way through its headers has
// its connection closed instead of holding it.
func TestStalledClientIsDisconnected(t *testing.T) {
	srv := newServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 ||
		srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("server deadlines: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond // the test does not wait out the real one
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\nX-Half")); err != nil {
		t.Fatal(err)
	}
	// Far longer than the deadline: a server without one fails here.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn) // returns once the server closes its side
	if err != nil {
		t.Fatalf("the server kept a stalled connection open: %v", err)
	}
	if strings.HasPrefix(string(reply), "HTTP/1.1 2") {
		t.Fatalf("half a request was served: %q", reply)
	}
}
